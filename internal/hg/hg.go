// Package hg is the hypergiant registry: the 23 content hypergiants the
// paper examines (§4.6), together with everything the *measurement side*
// knows about each — the organization keyword searched for in TLS
// Subject Organization fields, the organization name literals used to
// find on-net ASes in WHOIS data, a pool of first-party domains, and the
// curated HTTP(S) header fingerprints of appendix A.5 (Table 4).
//
// What each hypergiant actually *does* in the simulated world (deployment
// strategy, certificate lifetimes, anomalies) deliberately lives in
// package worldsim instead: the pipeline must not peek at ground truth.
package hg

import "strings"

// ID identifies a hypergiant. The zero value None is invalid.
type ID int

// The examined hypergiants. Order groups the top-4 first (the four with
// the largest off-net footprints: Google, Netflix, Facebook, Akamai).
const (
	None ID = iota
	Google
	Netflix
	Facebook
	Akamai
	Alibaba
	Cloudflare
	Amazon
	CDNetworks
	Limelight
	Apple
	Twitter
	Microsoft
	Hulu
	Disney
	Yahoo
	Chinacache
	Fastly
	Cachefly
	Incapsula
	CDN77
	Bamtech
	Highwinds
	Verizon
	numIDs
)

// Count is the number of registered hypergiants (23).
const Count = int(numIDs) - 1

// Header is one HTTP response header.
type Header struct {
	Name  string
	Value string
}

// HeaderFingerprint is one Table 4 rule identifying a hypergiant's
// servers from response headers.
type HeaderFingerprint struct {
	// Name is the header name, matched case-insensitively. If
	// NamePrefix is set, any header whose name starts with Name matches
	// (e.g. "X-Netflix" matches "X-Netflix.request-id").
	Name       string
	NamePrefix bool
	// Value, when non-empty, must match the header value; if
	// ValuePrefix is set a prefix match suffices (Table 4's trailing *).
	Value       string
	ValuePrefix bool
	// Documented records whether public documentation confirms the
	// header (Table 4's last column).
	Documented bool
}

// Matches reports whether the fingerprint matches one concrete header.
// Names and value prefixes compare as strings.ToLower of both sides
// would, without allocating.
func (f HeaderFingerprint) Matches(h Header) bool {
	if f.NamePrefix {
		if !HasLowerPrefix(h.Name, f.Name) {
			return false
		}
	} else if !equalLower(h.Name, f.Name) {
		return false
	}
	if f.Value == "" {
		return true
	}
	if f.ValuePrefix {
		return HasLowerPrefix(h.Value, f.Value)
	}
	return strings.EqualFold(h.Value, f.Value)
}

// lowerByte lowercases one ASCII byte.
func lowerByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// HasLowerPrefix reports whether strings.ToLower(s) begins with
// strings.ToLower(prefix). ASCII bytes compare in place; once a byte ≥
// 0x80 is involved it evaluates that exact expression, because Unicode
// lowercasing can change a string's length and map non-ASCII onto ASCII
// (the Kelvin sign "K" lowercases to "k"), which strings.EqualFold does
// not reproduce.
func HasLowerPrefix(s, prefix string) bool {
	for i := 0; i < len(prefix); i++ {
		if i == len(s) {
			// ToLower never empties a non-empty remainder, so the
			// lowered prefix is longer than the lowered s.
			return false
		}
		if s[i]|prefix[i] >= 0x80 {
			return strings.HasPrefix(strings.ToLower(s), strings.ToLower(prefix))
		}
		if lowerByte(s[i]) != lowerByte(prefix[i]) {
			return false
		}
	}
	return true
}

// equalLower reports whether strings.ToLower(a) == strings.ToLower(b),
// comparing ASCII in place as HasLowerPrefix does.
func equalLower(a, b string) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i]|b[i] >= 0x80 {
			return strings.ToLower(a) == strings.ToLower(b)
		}
		if lowerByte(a[i]) != lowerByte(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// Hypergiant describes one examined hypergiant from the measurer's
// perspective.
type Hypergiant struct {
	ID      ID
	Name    string // display name, e.g. "Google"
	Keyword string // case-insensitive substring searched in Subject Organization (§4.2)
	// OrgNames are the WHOIS organization name literals over time, used
	// to locate on-net ASes (§A.2). The simulator registers these names
	// in the OrgDB; the pipeline greps for Keyword.
	OrgNames []string
	// Domains is the hypergiant's first-party domain pool; certificates
	// draw their dNSNames from here.
	Domains []string
	// Fingerprints are the appendix-A.5 header rules. Empty for the
	// hypergiants the paper could not derive unique headers for.
	Fingerprints []HeaderFingerprint
}

// MatchesHeaders reports whether any fingerprint matches any header —
// the §4.5 confirmation test.
func (h *Hypergiant) MatchesHeaders(headers []Header) bool {
	for _, f := range h.Fingerprints {
		for _, hd := range headers {
			if f.Matches(hd) {
				return true
			}
		}
	}
	return false
}

var registry = map[ID]*Hypergiant{
	Google: {
		ID: Google, Name: "Google", Keyword: "google",
		OrgNames: []string{"Google Inc.", "Google LLC"},
		Domains: []string{
			"*.google.com", "*.googlevideo.com", "*.gstatic.com", "*.youtube.com",
			"*.ggpht.com", "*.googleapis.com", "*.google.com.br", "*.android.com",
			"*.gvt1.com", "*.doubleclick.net",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "gws", Documented: true},
			{Name: "Server", Value: "gvs", ValuePrefix: true, Documented: true},
			{Name: "X-Google-Security-Signals"},
			{Name: "X_FW_Edge"},
			{Name: "X_FW_Cache"},
		},
	},
	Netflix: {
		ID: Netflix, Name: "Netflix", Keyword: "netflix",
		OrgNames: []string{"Netflix, Inc."},
		Domains: []string{
			"*.nflxvideo.net", "*.netflix.com", "*.nflximg.net", "*.nflxext.com",
			"*.nflxso.net", "api-global.netflix.com",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "X-Netflix", NamePrefix: true},
			{Name: "X-TCP-Info"},
			{Name: "Access-Control-Expose-Headers", Value: "X-TCP-Info"},
		},
	},
	Facebook: {
		ID: Facebook, Name: "Facebook", Keyword: "facebook",
		OrgNames: []string{"Facebook, Inc."},
		Domains: []string{
			"*.facebook.com", "*.fbcdn.net", "*.instagram.com", "*.cdninstagram.com",
			"*.whatsapp.net", "*.fb.com", "*.messenger.com",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "proxygen", ValuePrefix: true, Documented: true},
			{Name: "X-FB-Debug", Documented: true},
			{Name: "X-FB-TRIP-ID", Documented: true},
		},
	},
	Akamai: {
		ID: Akamai, Name: "Akamai", Keyword: "akamai",
		OrgNames: []string{"Akamai Technologies, Inc."},
		Domains: []string{
			"a248.e.akamai.net", "*.akamaized.net", "*.akamaihd.net", "*.akamai.net",
			"*.edgekey.net", "*.edgesuite.net", "*.akadns.net",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "AkamaiGHost", Documented: true},
			{Name: "Server", Value: "AkamaiNetStorage", Documented: true},
			{Name: "Server", Value: "Ghost", Documented: true}, // only seen in China
		},
	},
	Alibaba: {
		ID: Alibaba, Name: "Alibaba", Keyword: "alibaba",
		OrgNames: []string{"Alibaba (China) Technology Co., Ltd."},
		Domains: []string{
			"*.alicdn.com", "*.aliyuncs.com", "*.taobao.com", "*.alibaba.com",
			"*.alikunlun.com", "*.tbcache.com",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "tengine", ValuePrefix: true, Documented: true},
			{Name: "Eagleid", Documented: true},
			{Name: "Server", Value: "AliyunOSS", ValuePrefix: true, Documented: true},
		},
	},
	Cloudflare: {
		ID: Cloudflare, Name: "Cloudflare", Keyword: "cloudflare",
		OrgNames: []string{"Cloudflare, Inc."},
		Domains: []string{
			"*.cloudflare.com", "*.cloudflaressl.com", "*.cloudflare-dns.com",
			"cloudflare-dns.com", "*.pages.dev", "*.workers.dev",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "Cloudflare", Documented: true},
			{Name: "cf-cache-status", Documented: true},
			{Name: "cf-ray", Documented: true},
			{Name: "cf-request-id", Documented: true},
		},
	},
	Amazon: {
		ID: Amazon, Name: "Amazon", Keyword: "amazon",
		OrgNames: []string{"Amazon.com, Inc.", "Amazon Technologies Inc."},
		Domains: []string{
			"*.amazonaws.com", "*.cloudfront.net", "*.amazon.com", "*.media-amazon.com",
			"*.ssl-images-amazon.com", "*.awsstatic.com",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "x-amz-id2", Documented: true},
			{Name: "x-amz-request-id", Documented: true},
			{Name: "Server", Value: "AmazonS3", Documented: true},
			{Name: "Server", Value: "awselb", ValuePrefix: true, Documented: true},
			{Name: "X-Amz-Cf-Id", Documented: true},
			{Name: "X-Amz-Cf-Pop", Documented: true},
			{Name: "X-Cache", Value: "Hit from cloudfront", Documented: true},
			{Name: "x-amzn-RequestId", Documented: true},
		},
	},
	CDNetworks: {
		ID: CDNetworks, Name: "Cdnetworks", Keyword: "cdnetworks",
		OrgNames: []string{"CDNetworks Inc."},
		Domains:  []string{"*.cdngc.net", "*.gccdn.net", "*.panthercdn.com"},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "PWS/", ValuePrefix: true, Documented: true},
		},
	},
	Limelight: {
		ID: Limelight, Name: "Limelight", Keyword: "limelight",
		OrgNames: []string{"Limelight Networks, Inc."},
		Domains:  []string{"*.llnwd.net", "*.llnw.net", "*.limelight.com", "*.lldns.net"},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "EdgePrism", ValuePrefix: true, Documented: true},
			{Name: "X-LLID", Documented: true},
		},
	},
	Apple: {
		ID: Apple, Name: "Apple", Keyword: "apple",
		OrgNames: []string{"Apple Inc."},
		Domains: []string{
			"*.apple.com", "*.aaplimg.com", "*.mzstatic.com", "*.icloud.com",
			"*.cdn-apple.com",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "CDNUUID"},
		},
	},
	Twitter: {
		ID: Twitter, Name: "Twitter", Keyword: "twitter",
		OrgNames: []string{"Twitter, Inc."},
		Domains:  []string{"*.twitter.com", "*.twimg.com", "*.t.co", "*.periscope.tv"},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "tsa_a", Documented: true},
		},
	},
	Microsoft: {
		ID: Microsoft, Name: "Microsoft", Keyword: "microsoft",
		OrgNames: []string{"Microsoft Corporation"},
		Domains: []string{
			"*.microsoft.com", "*.azureedge.net", "*.msecnd.net", "*.windows.net",
			"*.office365.com", "*.bing.com", "*.xboxlive.com",
		},
		Fingerprints: []HeaderFingerprint{
			{Name: "X-MSEdge-Ref", Documented: true},
		},
	},
	Hulu: {
		ID: Hulu, Name: "Hulu", Keyword: "hulu",
		OrgNames: []string{"Hulu, LLC"},
		Domains:  []string{"*.hulu.com", "*.huluim.com", "*.hulustream.com"},
		Fingerprints: []HeaderFingerprint{
			{Name: "X-Hulu-Request-Id"},
			{Name: "X-HULU-NGINX"},
		},
	},
	Verizon: {
		ID: Verizon, Name: "Verizon", Keyword: "verizon",
		OrgNames: []string{"Verizon Digital Media Services"},
		Domains:  []string{"*.edgecastcdn.net", "*.vdms.com", "*.verizondigitalmedia.com"},
		Fingerprints: []HeaderFingerprint{
			{Name: "Server", Value: "ECacc", ValuePrefix: true, Documented: true},
		},
	},
	Fastly: {
		ID: Fastly, Name: "Fastly", Keyword: "fastly",
		OrgNames: []string{"Fastly, Inc."},
		Domains:  []string{"*.fastly.net", "*.fastlylb.net", "*.fastly.com"},
		Fingerprints: []HeaderFingerprint{
			{Name: "X-Served-By", Value: "cache-", ValuePrefix: true, Documented: true},
		},
	},
	Incapsula: {
		ID: Incapsula, Name: "Incapsula", Keyword: "incapsula",
		OrgNames: []string{"Incapsula Inc"},
		Domains:  []string{"*.incapdns.net", "*.incapsula.com"},
		Fingerprints: []HeaderFingerprint{
			{Name: "X-CDN", Value: "Incapsula"},
		},
	},
	// The remaining hypergiants claim a CDN and have identifiable
	// certificates but no unique header fingerprints (§A.5).
	Disney: {
		ID: Disney, Name: "Disney", Keyword: "disney",
		OrgNames: []string{"Disney Worldwide Services, Inc."},
		Domains:  []string{"*.disney.com", "*.disneyplus.com", "*.dssott.com"},
	},
	Yahoo: {
		ID: Yahoo, Name: "Yahoo", Keyword: "yahoo",
		OrgNames: []string{"Yahoo! Inc.", "Yahoo Holdings, Inc."},
		Domains:  []string{"*.yahoo.com", "*.yimg.com", "*.yahooapis.com"},
	},
	Chinacache: {
		ID: Chinacache, Name: "Chinacache", Keyword: "chinacache",
		OrgNames: []string{"ChinaCache International Holdings"},
		Domains:  []string{"*.ccgslb.com", "*.chinacache.net"},
	},
	Cachefly: {
		ID: Cachefly, Name: "Cachefly", Keyword: "cachefly",
		OrgNames: []string{"CacheFly Networks, Inc."},
		Domains:  []string{"*.cachefly.net", "*.cachefly.com"},
	},
	CDN77: {
		ID: CDN77, Name: "CDN77", Keyword: "cdn77",
		OrgNames: []string{"CDN77 (DataCamp Limited)"},
		Domains:  []string{"*.cdn77.org", "*.cdn77-ssl.net", "*.cdn77.com"},
	},
	Bamtech: {
		ID: Bamtech, Name: "Bamtech", Keyword: "bamtech",
		OrgNames: []string{"BAMTech Media"},
		Domains:  []string{"*.bamgrid.com", "*.mlbstatic.com"},
	},
	Highwinds: {
		ID: Highwinds, Name: "Highwinds", Keyword: "highwinds",
		OrgNames: []string{"Highwinds Network Group, Inc."},
		Domains:  []string{"*.hwcdn.net", "*.highwinds.com"},
	},
}

// Get returns the registry entry for id. It panics on an unregistered
// id, which always indicates a programming error.
func Get(id ID) *Hypergiant {
	h, ok := registry[id]
	if !ok {
		panic("hg: unknown hypergiant id")
	}
	return h
}

// All returns every registered hypergiant in ID order.
func All() []*Hypergiant {
	out := make([]*Hypergiant, 0, Count)
	for id := None + 1; id < numIDs; id++ {
		out = append(out, registry[id])
	}
	return out
}

// Top4 returns the four hypergiants with the largest off-net footprints:
// Google, Netflix, Facebook, Akamai.
func Top4() []ID { return []ID{Google, Netflix, Facebook, Akamai} }

// IsTop4 reports whether id is one of the top-4.
func IsTop4(id ID) bool {
	return id == Google || id == Netflix || id == Facebook || id == Akamai
}

// ByName looks a hypergiant up by display name, case-insensitively.
func ByName(name string) (*Hypergiant, bool) {
	for _, h := range All() {
		if strings.EqualFold(h.Name, name) {
			return h, true
		}
	}
	return nil, false
}

// String implements fmt.Stringer.
func (id ID) String() string {
	if id <= None || id >= numIDs {
		return "None"
	}
	return registry[id].Name
}
