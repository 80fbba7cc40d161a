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
	"regexp"
	"sort"
	"strings"
	"sync"
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
	// matches (the paper's default, "Certs & (HTTP or HTTPS)").
	HeadersEither
	// HeadersBoth requires every collected port to match.
	HeadersBoth
)

// Options toggles individual methodology steps; the zero value is the
// paper's configuration. The Disable* fields exist for the ablation
// studies in DESIGN.md.
type Options struct {
	HeaderMode HeaderMode

	DisableChainValidation  bool // accept invalid/self-signed chains (§4.1 off)
	DisableDNSNameFilter    bool // skip the all-dNSNames-on-net rule (§4.3 off)
	DisableCloudflareFilter bool // keep Cloudflare customer certificates (§7 off)
	DisableConflictPriority bool // don't prioritise edge-CDN headers (§7 off)
	DisableNetflixNginx     bool // drop the Netflix default-nginx rule (§4.4 off)

	// IgnoreExpiryFor treats expired-but-otherwise-valid chains as valid
	// for the listed hypergiants — the Netflix "w/ expired" envelope
	// line of Fig 3.
	IgnoreExpiryFor map[hg.ID]bool
}

// DefaultHeaderMode is the paper's confirmation rule.
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
	// across runs and across StudyConfig.Jobs and Shards settings —
	// because every stage contributes by commutative addition; only the
	// *_ns timing histograms vary run to run. Nil disables
	// instrumentation at effectively zero cost.
	Metrics *obs.Registry

	// Shards bounds the intra-snapshot fan-out: inference splits its
	// per-record loops (§4.1 validation of each record batch and each
	// hypergiant's two record scans) into this many contiguous ranges on
	// as many goroutines. Zero or one means sequential record loops.
	// The output is byte-identical at any setting — partial results fold
	// in shard order (see shard.go) — so Shards, like StudyConfig.Jobs,
	// is an execution knob: deliberately not part of Options, and
	// excluded from checkpoint manifests.
	Shards int
}

// shardScratchPool pools validateShard partials so chunked reads and
// long studies reuse the record buffers and tally maps across batches
// and snapshots instead of re-growing them each time. Scratch is fully
// reset before reuse, so pooling cannot leak state between snapshots —
// which also makes it safe to share process-wide rather than
// per-Pipeline (ablations and benchmarks copy Pipeline by value, and a
// struct-embedded pool would make that copy a vet error).
var shardScratchPool sync.Pool

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

// SortedCandidateASes returns the candidate (certs-only) ASes in order.
func (r *HGResult) SortedCandidateASes() []astopo.ASN { return sortedASNs(r.CandidateASes) }

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

// ASesWithAnyHG counts ASes hosting at least one examined hypergiant's
// confirmed off-net (Table 2's "any" column).
func (r *Result) ASesWithAnyHG() int {
	set := make(map[astopo.ASN]struct{})
	for _, hr := range r.PerHG {
		for as := range hr.ConfirmedASes {
			set[as] = struct{}{}
		}
	}
	return len(set)
}

// record is a validated certificate observation ready for matching.
type record struct {
	ip       netmodel.IP
	asns     []astopo.ASN
	leaf     *certmodel.Certificate
	orgLower string
	expired  bool // invalid solely because the leaf expired
}

// Run executes the methodology over one in-memory corpus snapshot. It
// is InferSnapshotStream over corpus.StreamOf, which never fails, so a
// materialized snapshot goes through the same engine as a streamed read.
func (p *Pipeline) Run(snap *corpus.Snapshot) *Result {
	inf, _ := p.InferSnapshotStream(corpus.StreamOf(snap, 0))
	return inf.Result
}

// matchAndCount is the post-validation half of the methodology — the
// per-hypergiant match/confirm passes (steps 2–5), the corpus-wide IP
// split, and every per-snapshot funnel counter.
func (p *Pipeline) matchAndCount(res *Result, records []record, httpsIdx, httpIdx map[netmodel.IP][]hg.Header) {
	m := p.Metrics
	matchStart := time.Now()
	for _, h := range hg.All() {
		hr := p.runHG(h, res.Snapshot, records, httpsIdx, httpIdx)
		res.PerHG[h.ID] = hr
	}
	m.Histogram("funnel.match_ns").Since(matchStart)
	p.countHGIPs(res, records)

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
	for _, hr := range res.PerHG {
		m.Counter("funnel.onnet_fingerprint_ips").Add(int64(hr.OnNetIPs))
		m.Counter("funnel.candidate_ips").Add(int64(hr.CandidateIPs))
		m.Counter("funnel.confirmed_ips").Add(int64(hr.ConfirmedIPs))
		m.Counter("funnel.confirmed_ases").Add(int64(len(hr.ConfirmedASes)))
	}
}

// validateBatch is step 1 over one batch of certificate records:
// verify every chain and annotate records with their origin AS. Invalid
// chains are dropped (counted by reason in res) except expired-only
// leaves, which are kept flagged for the Fig 3 envelope. The batch
// shards across Pipeline.Shards goroutines and the partials fold in
// shard order, appending to records and adding to res and asSet — so
// batches folded in record order keep corpus order and every tally
// byte-identical at any chunk and shard count. It is the only §4.1 fold.
func (p *Pipeline) validateBatch(res *Result, asSet map[astopo.ASN]struct{}, records []record, batch []corpus.CertRecord, at time.Time, mapper IPMapper) []record {
	parts := make([]*validateShard, p.shardCount(len(batch)))
	forEachShard(len(batch), len(parts), func(shard, lo, hi int) {
		parts[shard] = p.validateRange(batch[lo:hi], at, mapper)
	})
	for _, part := range parts {
		records = append(records, part.records...)
		res.ValidCertIPs += part.valid
		for reason, c := range part.invalid {
			res.InvalidByReason[reason] += c
		}
		for as := range part.asSet {
			asSet[as] = struct{}{}
		}
		p.putShardScratch(part)
	}
	res.TotalCertIPs += len(batch)
	return records
}

// getShardScratch hands out a fully reset validateShard, reusing a
// pooled one when available. Records appended into it are copied out by
// the fold before the shard returns to the pool, so reuse can never
// alias a previous batch's data.
func (p *Pipeline) getShardScratch() *validateShard {
	if v, ok := shardScratchPool.Get().(*validateShard); ok {
		v.records = v.records[:0]
		v.valid = 0
		clear(v.invalid)
		clear(v.asSet)
		return v
	}
	return &validateShard{
		invalid: make(map[string]int),
		asSet:   make(map[astopo.ASN]struct{}),
	}
}

func (p *Pipeline) putShardScratch(v *validateShard) { shardScratchPool.Put(v) }

// validateShard is one shard's step-1 partial result: counts and the AS
// set merge by addition/union, records concatenate in shard order.
type validateShard struct {
	records []record
	valid   int
	invalid map[string]int
	asSet   map[astopo.ASN]struct{}
}

// validateRange validates one contiguous run of certificate records. It
// only reads the pipeline's immutable datasets (trust store, mapper),
// so any number of ranges can run concurrently.
func (p *Pipeline) validateRange(certs []corpus.CertRecord, at time.Time, mapper IPMapper) *validateShard {
	part := p.getShardScratch()
	for _, cr := range certs {
		asns := mapper.Lookup(cr.IP)
		for _, as := range asns {
			part.asSet[as] = struct{}{}
		}
		err := certmodel.Verify(cr.Chain, at, p.Trust)
		expired := false
		if err != nil && !p.Opts.DisableChainValidation {
			reason := certmodel.Reason(err)
			part.invalid[reason]++
			if reason != certmodel.ReasonExpired {
				continue
			}
			expired = true
		}
		if !expired {
			part.valid++
		}
		part.records = append(part.records, record{
			ip:       cr.IP,
			asns:     asns,
			leaf:     cr.Chain.Leaf(),
			orgLower: strings.ToLower(cr.Chain.Leaf().Subject.Organization),
			expired:  expired,
		})
	}
	return part
}

// runHG executes steps 2-5 for one hypergiant. Both record passes —
// the step-2 fingerprint scan and the step-3/5 candidate scan — shard
// across Pipeline.Shards goroutines with a shard-order fold, separated
// by a barrier: the candidate scan needs the complete dNSName
// fingerprint, which it then only reads.
func (p *Pipeline) runHG(h *hg.Hypergiant, s timeline.Snapshot, records []record, httpsIdx, httpIdx map[netmodel.IP][]hg.Header) *HGResult {
	hr := &HGResult{
		HG:                    h.ID,
		DNSNames:              make(map[string]struct{}),
		CandidateASes:         make(map[astopo.ASN]struct{}),
		ConfirmedASes:         make(map[astopo.ASN]struct{}),
		ConfirmedByEitherASes: make(map[astopo.ASN]struct{}),
		ConfirmedByBothASes:   make(map[astopo.ASN]struct{}),
		ExpiredASes:           make(map[astopo.ASN]struct{}),
		CertIPGroups:          make(map[certmodel.Fingerprint]int),
	}

	// Step 2: on-net ASes from the organization registry, then the
	// dNSName fingerprint from valid on-net certificates.
	hr.OnNetASes = p.Orgs.ASesMatching(h.Keyword, s)
	onNet := make(map[astopo.ASN]struct{}, len(hr.OnNetASes))
	for _, as := range hr.OnNetASes {
		onNet[as] = struct{}{}
	}
	kw := strings.ToLower(h.Keyword)
	k := p.shardCount(len(records))
	fps := make([]*fingerprintShard, k)
	forEachShard(len(records), k, func(shard, lo, hi int) {
		fps[shard] = fingerprintRange(records[lo:hi], kw, onNet)
	})
	for _, part := range fps {
		hr.OnNetIPs += part.onNetIPs
		for fp, c := range part.groups {
			hr.CertIPGroups[fp] += c
		}
		for d := range part.names {
			hr.DNSNames[d] = struct{}{}
		}
	}

	// Steps 3 + 5: candidates outside the on-net ASes, confirmed by
	// headers. Rejections are tallied by reason so the funnel report
	// can show where records leave the pipeline (funnel.drop.*).
	cands := make([]*candidateShard, k)
	forEachShard(len(records), k, func(shard, lo, hi int) {
		cands[shard] = p.candidateRange(h, records[lo:hi], kw, onNet, hr.DNSNames, httpsIdx, httpIdx)
	})
	var drops dropTally
	for _, part := range cands {
		drops.add(&part.drops)
		sub := part.hr
		hr.CandidateIPs += sub.CandidateIPs
		hr.ConfirmedIPs += sub.ConfirmedIPs
		hr.CandidateIPList = append(hr.CandidateIPList, sub.CandidateIPList...)
		hr.ConfirmedIPList = append(hr.ConfirmedIPList, sub.ConfirmedIPList...)
		hr.ExpiredIPs = append(hr.ExpiredIPs, sub.ExpiredIPs...)
		unionASes(hr.CandidateASes, sub.CandidateASes)
		unionASes(hr.ConfirmedASes, sub.ConfirmedASes)
		unionASes(hr.ConfirmedByEitherASes, sub.ConfirmedByEitherASes)
		unionASes(hr.ConfirmedByBothASes, sub.ConfirmedByBothASes)
		unionASes(hr.ExpiredASes, sub.ExpiredASes)
		for fp, c := range sub.CertIPGroups {
			hr.CertIPGroups[fp] += c
		}
	}
	m := p.Metrics
	m.Counter("funnel.hg_cert_matches").Add(drops.hgMatches)
	m.Counter("funnel.drop.expired_cert").Add(drops.expired)
	m.Counter("funnel.drop.dnsnames_offnet").Add(drops.dnsNames)
	m.Counter("funnel.drop.cloudflare_customer").Add(drops.cloudflare)
	m.Counter("funnel.drop.header_unconfirmed").Add(drops.unconfirmed)
	return hr
}

// fingerprintShard is one shard's step-2 output; counts add, the group
// and name maps union.
type fingerprintShard struct {
	onNetIPs int
	groups   map[certmodel.Fingerprint]int
	names    map[string]struct{}
}

// fingerprintRange learns the dNSName fingerprint contribution of one
// contiguous run of records.
func fingerprintRange(records []record, kw string, onNet map[astopo.ASN]struct{}) *fingerprintShard {
	part := &fingerprintShard{
		groups: make(map[certmodel.Fingerprint]int),
		names:  make(map[string]struct{}),
	}
	for i := range records {
		r := &records[i]
		if r.expired || !strings.Contains(r.orgLower, kw) {
			continue
		}
		if !anyIn(r.asns, onNet) {
			continue
		}
		part.onNetIPs++
		part.groups[r.leaf.Fingerprint()]++
		for _, d := range r.leaf.DNSNames {
			part.names[d] = struct{}{}
		}
	}
	return part
}

// dropTally counts one shard's step-3/5 rejections by reason.
type dropTally struct {
	hgMatches, expired, dnsNames, cloudflare, unconfirmed int64
}

func (t *dropTally) add(o *dropTally) {
	t.hgMatches += o.hgMatches
	t.expired += o.expired
	t.dnsNames += o.dnsNames
	t.cloudflare += o.cloudflare
	t.unconfirmed += o.unconfirmed
}

// candidateShard is one shard's step-3/5 output, accumulated into a
// scratch HGResult whose list fields concatenate in shard order and
// whose set fields union.
type candidateShard struct {
	hr    *HGResult
	drops dropTally
}

// candidateRange runs the candidate + confirmation scan over one
// contiguous run of records. dnsNames is the complete step-2
// fingerprint and is only read, as are the header indexes.
func (p *Pipeline) candidateRange(h *hg.Hypergiant, records []record, kw string, onNet map[astopo.ASN]struct{}, dnsNames map[string]struct{}, httpsIdx, httpIdx map[netmodel.IP][]hg.Header) *candidateShard {
	part := &candidateShard{hr: &HGResult{
		CandidateASes:         make(map[astopo.ASN]struct{}),
		ConfirmedASes:         make(map[astopo.ASN]struct{}),
		ConfirmedByEitherASes: make(map[astopo.ASN]struct{}),
		ConfirmedByBothASes:   make(map[astopo.ASN]struct{}),
		ExpiredASes:           make(map[astopo.ASN]struct{}),
		CertIPGroups:          make(map[certmodel.Fingerprint]int),
	}}
	hr := part.hr
	allowExpired := p.Opts.IgnoreExpiryFor[h.ID]
	for i := range records {
		r := &records[i]
		if !strings.Contains(r.orgLower, kw) {
			continue
		}
		if len(r.asns) == 0 || anyIn(r.asns, onNet) {
			continue
		}
		part.drops.hgMatches++
		if r.expired && !allowExpired {
			// Track what ignoring expiry would add (Fig 3 envelope).
			if p.dnsNamesOnNet(r.leaf, dnsNames) && !p.isCloudflareCustomerCert(h.ID, r.leaf) {
				for _, as := range r.asns {
					hr.ExpiredASes[as] = struct{}{}
				}
				hr.ExpiredIPs = append(hr.ExpiredIPs, r.ip)
			}
			part.drops.expired++
			continue
		}
		if !p.dnsNamesOnNet(r.leaf, dnsNames) {
			part.drops.dnsNames++
			continue
		}
		if p.isCloudflareCustomerCert(h.ID, r.leaf) {
			part.drops.cloudflare++
			continue
		}
		hr.CandidateIPs++
		hr.CandidateIPList = append(hr.CandidateIPList, r.ip)
		for _, as := range r.asns {
			hr.CandidateASes[as] = struct{}{}
		}
		hr.CertIPGroups[r.leaf.Fingerprint()]++

		// Step 5: header confirmation, in every mode at once.
		either, both := p.confirmModes(h, r.ip, httpsIdx, httpIdx)
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
		confirmed := either
		switch p.Opts.HeaderMode {
		case CertsOnly:
			confirmed = true
		case HeadersBoth:
			confirmed = both
		}
		if confirmed {
			hr.ConfirmedIPs++
			hr.ConfirmedIPList = append(hr.ConfirmedIPList, r.ip)
			for _, as := range r.asns {
				hr.ConfirmedASes[as] = struct{}{}
			}
		} else {
			part.drops.unconfirmed++
		}
	}
	return part
}

// unionASes folds src into dst.
func unionASes(dst, src map[astopo.ASN]struct{}) {
	for as := range src {
		dst[as] = struct{}{}
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
	if h.ID == hg.Netflix && !p.Opts.DisableNetflixNginx {
		// A Netflix certificate plus the default nginx Server header is
		// an Open Connect appliance (§4.4).
		for _, hd := range headers {
			if strings.EqualFold(hd.Name, "Server") && strings.HasPrefix(strings.ToLower(hd.Value), "nginx") {
				return true
			}
		}
	}
	return false
}

// countHGIPs splits valid HG-matching certificate IPs into on-net and
// off-net populations (Fig 2's right axis).
func (p *Pipeline) countHGIPs(res *Result, records []record) {
	type kwOnNet struct {
		kw    string
		onNet map[astopo.ASN]struct{}
	}
	var hgs []kwOnNet
	for _, h := range hg.All() {
		onNet := make(map[astopo.ASN]struct{})
		for _, as := range res.PerHG[h.ID].OnNetASes {
			onNet[as] = struct{}{}
		}
		hgs = append(hgs, kwOnNet{kw: strings.ToLower(h.Keyword), onNet: onNet})
	}
	for i := range records {
		r := &records[i]
		if r.expired {
			continue
		}
		for _, k := range hgs {
			if !strings.Contains(r.orgLower, k.kw) {
				continue
			}
			if anyIn(r.asns, k.onNet) {
				res.HGOnNetCertIPs++
			} else {
				res.HGOffNetCertIPs++
			}
			break
		}
	}
}

func anyIn(asns []astopo.ASN, set map[astopo.ASN]struct{}) bool {
	for _, as := range asns {
		if _, ok := set[as]; ok {
			return true
		}
	}
	return false
}
