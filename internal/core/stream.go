package core

import (
	"cmp"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
)

// This file is the §4 inference engine: the five methodology steps fed
// by corpus.Stream record batches. Every caller goes through it — Run
// and RunStudy wrap in-memory snapshots with corpus.StreamOf, offnetmap
// streams vendor-months straight off disk. Chains, header slices, and a
// month's raw record slices never materialize at once. What does stay
// resident per snapshot is one compact record per validated certificate
// observation whose organization carries a hypergiant keyword (§4.2–4.5
// match every hypergiant in two passes over them, each record carrying
// a bitmask of those hypergiants), the certificate and HTTP-only IP
// sets, and the headers of keyword-record IPs, the only header lists a
// disk read builds (corpus.Stream.HeaderIPs): memory is O(chunk +
// validated keyword records + the month's certificate and HTTP-only IPs
// + the keyword IPs' header lists + the per-read intern table). A disk
// read likewise builds the CN and dNSNames of keyword leaves alone
// (corpus.Stream.LeafNames).
//
// The month-sized sets — certificate IPs, keyword IPs, HTTP-only IPs
// and the certificate ASes behind TotalCertASes — are netmodel.Sets:
// one open-addressed array of 4-byte keys, at most half full, so 8–16
// bytes a key. The certificate IPs are appended to a slice during the
// certificate read and put into one set sized from it, and the keyword
// set is sized from the keyword records, so neither rehashes as it
// fills.
//
// Determinism contract: batches arrive in record order and validate in
// arrival order, so the fold order is chunk order, which is record
// order. Every counter adds, every set unions and every list appends in
// that order, which is why the output is byte-identical at any jobs ×
// chunk combination (pinned by the golden suite).

// InferSnapshotStream runs the full §4 inference over one snapshot's
// record stream and captures the envelope inputs. On the calling
// goroutine it reads the certificates, validating batches as they
// arrive, with the stream's LeafNames set to its §4.2 keyword test so
// that a disk read builds the CN and dNSNames of keyword leaves alone,
// then the HTTPS and HTTP headers of keyword-record IPs, which it sets
// as the stream's HeaderIPs so that a disk read builds no other header
// list. Each read runs to completion even after an earlier one
// failed, so a stream's read accounting always finalizes. The error is
// the first in certs → https → http order: record-level damage
// accounting happened inside the stream per its ReadOptions, and a
// surfaced error means the month must be dropped.
//
// It is a pure function of the stream and the pipeline's immutable
// datasets, so any number of snapshots can be inferred concurrently.
func (p *Pipeline) InferSnapshotStream(st *corpus.Stream) (*SnapshotInference, error) {
	m := p.Metrics
	runStart := time.Now()
	res := &Result{
		Vendor:          st.Vendor,
		Snapshot:        st.Snapshot,
		InvalidByReason: make(map[string]int),
		PerHG:           make(map[hg.ID]*HGResult, hg.Count),
	}
	mapper := p.Mapper(st.Snapshot)
	at := st.ScanTime()

	var (
		records  []record
		certList []netmodel.IP
		asSet    = &netmodel.Set[astopo.ASN]{}
		orgs     = make(orgMatcher)
		httpsIdx = make(map[netmodel.IP][]hg.Header)
		httpIdx  = make(map[netmodel.IP][]hg.Header)
		httpOnly = &netmodel.Set[netmodel.IP]{}
	)
	valStart := time.Now()
	// §4.2–4.5 read a leaf's CN and dNSNames only when its organization
	// carries a keyword, so a disk read builds no others.
	st.LeafNames = func(org string) bool { return orgs.match(org) != 0 }
	errCerts := st.Certs(func(batch []corpus.CertRecord) error {
		for i := range batch {
			certList = append(certList, batch[i].IP)
		}
		records = p.validateBatch(res, asSet, orgs, records, batch, at, mapper)
		return nil
	})
	certIPs := netmodel.NewSet[netmodel.IP](len(certList))
	for _, ip := range certList {
		certIPs.Add(ip)
	}
	keyword := keywordIPs(records)
	st.HeaderIPs = keyword
	errHTTPS := st.HTTPS(func(batch []corpus.HeaderRecord) error {
		indexHeaders(httpsIdx, keyword, batch)
		return nil
	})
	errHTTP := st.HTTP(func(batch []corpus.HeaderRecord) error {
		// §6.2: answered on port 80 but presented no certificate.
		for i := range batch {
			if !certIPs.Has(batch[i].IP) {
				httpOnly.Add(batch[i].IP)
			}
		}
		indexHeaders(httpIdx, keyword, batch)
		return nil
	})
	if err := cmp.Or(errCerts, errHTTPS, errHTTP); err != nil {
		return nil, err
	}
	res.TotalCertASes = asSet.Len()
	m.Histogram("funnel.validate_ns").Since(valStart)

	p.matchAndCount(res, records, httpsIdx, httpIdx)

	lookups := p.netflixLookups(res, mapper)
	m.Histogram("funnel.run_ns").Since(runStart)
	return &SnapshotInference{Result: res, HTTPOnlyIPs: httpOnly, NetflixLookups: lookups}, nil
}

// keywordIPs is the set of IPs of the validated keyword records: §4.5
// reads the headers of §4.3 candidates only, and each is one of them.
func keywordIPs(records []record) *netmodel.Set[netmodel.IP] {
	ips := netmodel.NewSet[netmodel.IP](len(records))
	for i := range records {
		ips.Add(records[i].ip)
	}
	return ips
}

// indexHeaders folds one batch of header records into a per-IP index,
// keeping only the IPs in keep; a later record for the same IP replaces
// an earlier one.
func indexHeaders(idx map[netmodel.IP][]hg.Header, keep *netmodel.Set[netmodel.IP], batch []corpus.HeaderRecord) {
	for _, r := range batch {
		if keep.Has(r.IP) {
			idx[r.IP] = r.Headers
		}
	}
}
