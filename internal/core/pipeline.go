// Package core implements the paper's contribution: the generic
// methodology for inferring hypergiant off-net footprints from TLS
// certificate and HTTP(S) header scan corpuses (§4).
//
// The pipeline is dataset-agnostic: it consumes corpus.Stream record
// batches (in-memory snapshots through corpus.StreamOf), an IP-to-AS mapper, and an AS-to-organization registry, and never
// touches simulator ground truth. Its five steps mirror the paper:
//
//  1. validate every certificate chain (§4.1);
//  2. learn each hypergiant's TLS fingerprint — the dNSNames served from
//     its own address space (§4.2);
//  3. flag candidate off-nets: IPs outside the hypergiant whose
//     certificate matches the organization keyword and whose dNSNames
//     are all served on-net (§4.3);
//  4. learn HTTP(S) header fingerprints from on-net responses (§4.4,
//     implemented in mine.go; confirmation uses the curated appendix-A.5
//     registry);
//  5. confirm candidates whose responses carry the hypergiant's header
//     fingerprint (§4.5), resolving reverse-proxy conflicts in favour of
//     third-party edge CDNs (§7).
package core

import (
	"math/bits"
	"regexp"
	"sort"
	"strings"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/timeline"
)

// IPMapper resolves an IP address to its origin AS(es); *bgpsim.IP2AS
// satisfies it.
type IPMapper interface {
	Lookup(ip netmodel.IP) []astopo.ASN
}

// HeaderMode selects how candidates are confirmed (Fig 4's variants).
type HeaderMode int

const (
	// CertsOnly skips header confirmation entirely.
	CertsOnly HeaderMode = iota
	// HeadersEither confirms when the HTTP or the HTTPS response
	// matches (the paper's default, "Certs & (HTTP or HTTPS)"). Fig 4's
	// stricter "every collected port matches" line is not a mode: every
	// run records it in HGResult.ConfirmedByBothASes.
	HeadersEither
)

// Options toggles individual methodology steps; DefaultOptions is the
// paper's configuration. The Disable* fields exist for the ablation
// studies in DESIGN.md.
type Options struct {
	HeaderMode HeaderMode

	DisableChainValidation  bool // accept invalid/self-signed chains (§4.1 off)
	DisableDNSNameFilter    bool // skip the all-dNSNames-on-net rule (§4.3 off)
	DisableCloudflareFilter bool // keep Cloudflare customer certificates (§7 off)
	DisableConflictPriority bool // don't prioritise edge-CDN headers (§7 off)
}

// DefaultOptions returns the paper's configuration: every step on, and
// candidates confirmed when either port's headers match (HeadersEither).
func DefaultOptions() Options {
	return Options{HeaderMode: HeadersEither}
}

// Pipeline binds the methodology to its external datasets.
type Pipeline struct {
	Trust  *certmodel.TrustStore
	Orgs   *astopo.OrgDB
	Mapper func(timeline.Snapshot) IPMapper
	Opts   Options

	// Metrics, when set, receives the per-stage funnel counters and
	// stage timers documented in DESIGN.md §7 (funnel.*). Counter
	// totals are deterministic for a fixed corpus — byte-identical
	// across runs and across StudyConfig.Jobs settings — because every
	// stage contributes by commutative addition; only the *_ns timing
	// histograms vary run to run. Nil disables instrumentation at
	// effectively zero cost.
	Metrics *obs.Registry
}

// cloudflareCustomerRe is the §7 filter for Cloudflare-issued customer
// certificates.
var cloudflareCustomerRe = regexp.MustCompile(`^(ssl|sni)[0-9]*\.cloudflaressl\.com$`)

// HGResult is one hypergiant's inference output for one snapshot.
type HGResult struct {
	HG hg.ID

	// OnNetASes are the hypergiant's own ASes per the organization
	// registry (§A.2).
	OnNetASes []astopo.ASN
	// DNSNames is the learned TLS fingerprint: every dNSName observed
	// on valid on-net certificates matching the organization keyword.
	DNSNames map[string]struct{}

	// CandidateASes/ConfirmedASes are the §4.3 / §4.5 outputs;
	// ConfirmedASes follows Options.HeaderMode. The ByEither/ByBoth
	// variants are always computed so dataset comparisons (Fig 4) need
	// only one pipeline run.
	CandidateASes         map[astopo.ASN]struct{}
	ConfirmedASes         map[astopo.ASN]struct{}
	ConfirmedByEitherASes map[astopo.ASN]struct{}
	ConfirmedByBothASes   map[astopo.ASN]struct{}
	CandidateIPs          int
	ConfirmedIPs          int
	// ConfirmedIPList and CandidateIPList back longitudinal state and
	// the §5 validation experiments.
	ConfirmedIPList []netmodel.IP
	CandidateIPList []netmodel.IP

	// ExpiredASes are ASes whose only evidence is an expired
	// certificate matching the fingerprint — the input to the Netflix
	// "w/ expired" envelope.
	ExpiredASes map[astopo.ASN]struct{}
	ExpiredIPs  []netmodel.IP

	// OnNetIPs is the number of on-net IPs serving the HG's certificates.
	OnNetIPs int
	// CertIPGroups counts, per end-entity certificate, how many IPs
	// served it (Fig 11's IP groups).
	CertIPGroups map[certmodel.Fingerprint]int
}

// SortedConfirmedASes returns the confirmed off-net ASes in order.
func (r *HGResult) SortedConfirmedASes() []astopo.ASN { return sortedASNs(r.ConfirmedASes) }

func sortedASNs(set map[astopo.ASN]struct{}) []astopo.ASN {
	out := make([]astopo.ASN, 0, len(set))
	for as := range set {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Result is the full per-snapshot inference output.
type Result struct {
	Vendor   corpus.Vendor
	Snapshot timeline.Snapshot

	// Corpus-wide statistics (Table 2 / Fig 2).
	TotalCertIPs    int
	TotalCertASes   int
	ValidCertIPs    int
	InvalidByReason map[string]int
	HGOnNetCertIPs  int // valid HG-matching cert IPs inside HG ASes
	HGOffNetCertIPs int // valid HG-matching cert IPs outside HG ASes

	PerHG map[hg.ID]*HGResult
}

// record is a validated certificate observation ready for matching.
type record struct {
	ip   netmodel.IP
	asns []astopo.ASN
	leaf *certmodel.Certificate
	// hgs has bit h.ID set for every hypergiant h whose keyword the
	// leaf's Subject Organization contains (§4.2).
	hgs     uint32
	expired bool // invalid solely because the leaf expired
}

// A record's hgs holds bit h.ID for IDs 1..hg.Count: this constant
// overflows, and the build fails, once hg.Count outgrows 31.
const _ uint32 = 1 << hg.Count

// hgKeywords holds every hypergiant's §4.2 keyword, lowercased, indexed
// by ID.
var hgKeywords = func() (kws [hg.Count + 1]string) {
	for _, h := range hg.All() {
		kws[h.ID] = strings.ToLower(h.Keyword)
	}
	return kws
}()

// orgMatcher memoizes, per distinct Subject Organization, the set of
// hypergiants whose keyword it contains case-insensitively, as a
// record's hgs bitmask. The decoder interns organizations, so a month
// has few distinct ones and each is lowercased and searched once.
// InferSnapshotStream makes one per snapshot for its certificate
// consumer goroutine alone; nothing outlives the snapshot.
type orgMatcher map[string]uint32

func (m orgMatcher) match(org string) uint32 {
	set, ok := m[org]
	if ok {
		return set
	}
	lower := strings.ToLower(org)
	for id := 1; id <= hg.Count; id++ {
		if strings.Contains(lower, hgKeywords[id]) {
			set |= 1 << id
		}
	}
	m[org] = set
	return set
}

// Run executes the methodology over one in-memory corpus snapshot. It
// is InferSnapshotStream over corpus.StreamOf, which never fails, so a
// materialized snapshot goes through the same engine as a streamed read.
func (p *Pipeline) Run(snap *corpus.Snapshot) *Result {
	inf, _ := p.InferSnapshotStream(corpus.StreamOf(snap, 0))
	return inf.Result
}

// hgMatch is one hypergiant's state across matchAndCount's two record
// passes.
type hgMatch struct {
	h     *hg.Hypergiant
	hr    *HGResult
	onNet map[astopo.ASN]struct{}

	// Steps 3–5: records that matched the keyword outside the on-net
	// ASes, and why candidates were rejected (funnel.drop.*).
	matches, expiredDrops, dnsNameDrops, cloudflareDrops, unconfirmed int64
}

// matchAndCount is the post-validation half of the methodology — steps
// 2–5 for every hypergiant, the corpus-wide on-net/off-net IP split,
// and every per-snapshot funnel counter. It walks the records twice,
// whatever the number of hypergiants: each record visits only the
// hypergiants in its keyword set, in record order, so every
// per-hypergiant list keeps record order.
func (p *Pipeline) matchAndCount(res *Result, records []record, httpsIdx, httpIdx map[netmodel.IP][]hg.Header) {
	m := p.Metrics
	matchStart := time.Now()

	// Step 2 starts from the on-net ASes in the organization registry;
	// hg.All() and hgKeywords[1:] are both in ID order.
	onNetASes := p.Orgs.ASesMatching(hgKeywords[1:], res.Snapshot)
	var byID [hg.Count + 1]*hgMatch
	for i, h := range hg.All() {
		hm := &hgMatch{
			h: h,
			hr: &HGResult{
				HG:                    h.ID,
				OnNetASes:             onNetASes[i],
				DNSNames:              make(map[string]struct{}),
				CandidateASes:         make(map[astopo.ASN]struct{}),
				ConfirmedASes:         make(map[astopo.ASN]struct{}),
				ConfirmedByEitherASes: make(map[astopo.ASN]struct{}),
				ConfirmedByBothASes:   make(map[astopo.ASN]struct{}),
				ExpiredASes:           make(map[astopo.ASN]struct{}),
				CertIPGroups:          make(map[certmodel.Fingerprint]int),
			},
			onNet: make(map[astopo.ASN]struct{}, len(onNetASes[i])),
		}
		for _, as := range onNetASes[i] {
			hm.onNet[as] = struct{}{}
		}
		byID[h.ID] = hm
		res.PerHG[h.ID] = hm.hr
	}

	// Pass 1, step 2: the dNSName fingerprint from valid on-net
	// certificates, plus Fig 2's split of valid matching IPs, where a
	// record counts once, under its first hypergiant in hg.All() order
	// (the lowest set bit).
	for i := range records {
		r := &records[i]
		if r.hgs == 0 || r.expired {
			continue
		}
		if anyIn(r.asns, byID[bits.TrailingZeros32(r.hgs)].onNet) {
			res.HGOnNetCertIPs++
		} else {
			res.HGOffNetCertIPs++
		}
		for set := r.hgs; set != 0; set &= set - 1 {
			hm := byID[bits.TrailingZeros32(set)]
			if !anyIn(r.asns, hm.onNet) {
				continue
			}
			hm.hr.OnNetIPs++
			hm.hr.CertIPGroups[r.leaf.Fingerprint()]++
			for _, d := range r.leaf.DNSNames {
				hm.hr.DNSNames[d] = struct{}{}
			}
		}
	}

	// Pass 2, steps 3–5, which need the complete fingerprints.
	for i := range records {
		r := &records[i]
		if r.hgs == 0 || len(r.asns) == 0 {
			continue
		}
		for set := r.hgs; set != 0; set &= set - 1 {
			if hm := byID[bits.TrailingZeros32(set)]; !anyIn(r.asns, hm.onNet) {
				p.offNetCandidate(hm, r, httpsIdx, httpIdx)
			}
		}
	}
	m.Histogram("funnel.match_ns").Since(matchStart)

	// The per-snapshot funnel (§3–§4): how many records each stage
	// admitted. All plain additions, so study totals are identical at
	// any worker count.
	m.Counter("funnel.snapshots_inferred").Inc()
	m.Counter("funnel.certs_seen").Add(int64(res.TotalCertIPs))
	m.Counter("funnel.certs_valid").Add(int64(res.ValidCertIPs))
	for reason, n := range res.InvalidByReason {
		m.Counter("funnel.cert_invalid." + reason).Add(int64(n))
	}
	m.Counter("funnel.hg_cert_onnet_ips").Add(int64(res.HGOnNetCertIPs))
	m.Counter("funnel.hg_cert_offnet_ips").Add(int64(res.HGOffNetCertIPs))
	for _, hm := range byID[1:] {
		m.Counter("funnel.hg_cert_matches").Add(hm.matches)
		m.Counter("funnel.drop.expired_cert").Add(hm.expiredDrops)
		m.Counter("funnel.drop.dnsnames_offnet").Add(hm.dnsNameDrops)
		m.Counter("funnel.drop.cloudflare_customer").Add(hm.cloudflareDrops)
		m.Counter("funnel.drop.header_unconfirmed").Add(hm.unconfirmed)
		m.Counter("funnel.onnet_fingerprint_ips").Add(int64(hm.hr.OnNetIPs))
		m.Counter("funnel.candidate_ips").Add(int64(hm.hr.CandidateIPs))
		m.Counter("funnel.confirmed_ips").Add(int64(hm.hr.ConfirmedIPs))
		m.Counter("funnel.confirmed_ases").Add(int64(len(hm.hr.ConfirmedASes)))
	}
}

// validateBatch is step 1 over one batch of certificate records:
// verify every chain and annotate records with their origin AS and
// keyword set. Invalid chains are dropped (counted by reason in res)
// except expired-only leaves, which are kept flagged for the Fig 3
// envelope. Validated records append to records and tallies add to res
// and asSet, so batches validated in record order keep corpus order and
// every tally byte-identical at any chunk size. It is the only §4.1
// pass.
func (p *Pipeline) validateBatch(res *Result, asSet map[astopo.ASN]struct{}, orgs orgMatcher, records []record, batch []corpus.CertRecord, at time.Time, mapper IPMapper) []record {
	for _, cr := range batch {
		asns := mapper.Lookup(cr.IP)
		for _, as := range asns {
			asSet[as] = struct{}{}
		}
		err := certmodel.Verify(cr.Chain, at, p.Trust)
		expired := false
		if err != nil && !p.Opts.DisableChainValidation {
			reason := certmodel.Reason(err)
			res.InvalidByReason[reason]++
			if reason != certmodel.ReasonExpired {
				continue
			}
			expired = true
		}
		if !expired {
			res.ValidCertIPs++
		}
		leaf := cr.Chain.Leaf()
		records = append(records, record{
			ip:      cr.IP,
			asns:    asns,
			leaf:    leaf,
			hgs:     orgs.match(leaf.Subject.Organization),
			expired: expired,
		})
	}
	res.TotalCertIPs += len(batch)
	return records
}

// offNetCandidate runs steps 3–5 for one record that matched hm's
// keyword outside its on-net ASes: the §4.3 candidate filters, then
// header confirmation. Rejections are tallied by reason so the funnel
// report can show where records leave the pipeline (funnel.drop.*).
func (p *Pipeline) offNetCandidate(hm *hgMatch, r *record, httpsIdx, httpIdx map[netmodel.IP][]hg.Header) {
	hr := hm.hr
	hm.matches++
	if r.expired {
		// Track what ignoring expiry would add (Fig 3 envelope).
		if p.dnsNamesOnNet(r.leaf, hr.DNSNames) && !p.isCloudflareCustomerCert(hr.HG, r.leaf) {
			for _, as := range r.asns {
				hr.ExpiredASes[as] = struct{}{}
			}
			hr.ExpiredIPs = append(hr.ExpiredIPs, r.ip)
		}
		hm.expiredDrops++
		return
	}
	if !p.dnsNamesOnNet(r.leaf, hr.DNSNames) {
		hm.dnsNameDrops++
		return
	}
	if p.isCloudflareCustomerCert(hr.HG, r.leaf) {
		hm.cloudflareDrops++
		return
	}
	hr.CandidateIPs++
	hr.CandidateIPList = append(hr.CandidateIPList, r.ip)
	for _, as := range r.asns {
		hr.CandidateASes[as] = struct{}{}
	}
	hr.CertIPGroups[r.leaf.Fingerprint()]++

	// Step 5: header confirmation, in every mode at once.
	either, both := p.confirmModes(hm.h, r.ip, httpsIdx, httpIdx)
	if either {
		for _, as := range r.asns {
			hr.ConfirmedByEitherASes[as] = struct{}{}
		}
	}
	if both {
		for _, as := range r.asns {
			hr.ConfirmedByBothASes[as] = struct{}{}
		}
	}
	if !either && p.Opts.HeaderMode != CertsOnly {
		hm.unconfirmed++
		return
	}
	hr.ConfirmedIPs++
	hr.ConfirmedIPList = append(hr.ConfirmedIPList, r.ip)
	for _, as := range r.asns {
		hr.ConfirmedASes[as] = struct{}{}
	}
}

// dnsNamesOnNet applies the §4.3 subset rule: every dNSName on the
// candidate certificate must have been observed on-net.
func (p *Pipeline) dnsNamesOnNet(leaf *certmodel.Certificate, onNetNames map[string]struct{}) bool {
	if p.Opts.DisableDNSNameFilter {
		return true
	}
	if len(leaf.DNSNames) == 0 {
		return false
	}
	for _, d := range leaf.DNSNames {
		if _, ok := onNetNames[d]; !ok {
			return false
		}
	}
	return true
}

// isCloudflareCustomerCert applies the §7 Cloudflare filter: Cloudflare
// candidates whose certificate carries a (ssl|sni)N.cloudflaressl.com
// entry are customer certificates, not off-nets.
func (p *Pipeline) isCloudflareCustomerCert(id hg.ID, leaf *certmodel.Certificate) bool {
	if p.Opts.DisableCloudflareFilter || id != hg.Cloudflare {
		return false
	}
	for _, d := range leaf.DNSNames {
		if cloudflareCustomerRe.MatchString(strings.ToLower(d)) {
			return true
		}
	}
	return false
}

// confirmModes applies the §4.5 header test to one candidate IP in both
// confirmation modes: "either port matches" and "every collected port
// matches".
func (p *Pipeline) confirmModes(h *hg.Hypergiant, ip netmodel.IP, httpsIdx, httpIdx map[netmodel.IP][]hg.Header) (either, both bool) {
	httpsH, hasHTTPS := httpsIdx[ip]
	httpH, hasHTTP := httpIdx[ip]
	if !hasHTTPS && !hasHTTP {
		return false, false
	}
	matchHTTPS := hasHTTPS && p.headersIdentify(h, httpsH)
	matchHTTP := hasHTTP && p.headersIdentify(h, httpH)
	either = matchHTTPS || matchHTTP
	both = (!hasHTTPS || matchHTTPS) && (!hasHTTP || matchHTTP)
	return either, both
}

// headersIdentify decides whether a response identifies h's serving
// software, including the Netflix default-nginx rule (§4.4) and the
// third-party edge-CDN conflict priority (§7).
func (p *Pipeline) headersIdentify(h *hg.Hypergiant, headers []hg.Header) bool {
	if !p.Opts.DisableConflictPriority {
		// A response carrying a third-party edge CDN's fingerprint is
		// that CDN's hardware, whatever certificate it holds.
		for _, edge := range []hg.ID{hg.Akamai, hg.Cloudflare} {
			if edge == h.ID {
				continue
			}
			if hg.Get(edge).MatchesHeaders(headers) {
				return false
			}
		}
	}
	if h.MatchesHeaders(headers) {
		return true
	}
	if h.ID == hg.Netflix {
		// A Netflix certificate plus the default nginx Server header is
		// an Open Connect appliance (§4.4).
		for _, hd := range headers {
			if strings.EqualFold(hd.Name, "Server") && hg.HasLowerPrefix(hd.Value, "nginx") {
				return true
			}
		}
	}
	return false
}

func anyIn(asns []astopo.ASN, set map[astopo.ASN]struct{}) bool {
	for _, as := range asns {
		if _, ok := set[as]; ok {
			return true
		}
	}
	return false
}
