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
// + the keyword IPs' header lists + the per-read intern table).
//
// Determinism contract: batches arrive in record order and validate in
// arrival order, so the fold order is chunk order, which is record
// order. Every counter adds, every set unions and every list appends in
// that order, which is why the output is byte-identical at any jobs ×
// chunk combination (pinned by the golden suite).

// InferSnapshotStream runs the full §4 inference over one snapshot's
// record stream and captures the envelope inputs. On the calling
// goroutine it reads the certificates, validating batches as they
// arrive, then the HTTPS and HTTP headers of keyword-record IPs, which
// it sets as the stream's HeaderIPs so that a disk read builds no other
// header list. Each read runs to completion even after an earlier one
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
		asSet    = make(map[astopo.ASN]struct{})
		orgs     = make(orgMatcher)
		certIPs  = make(map[netmodel.IP]struct{})
		httpsIdx = make(map[netmodel.IP][]hg.Header)
		httpIdx  = make(map[netmodel.IP][]hg.Header)
		httpOnly = make(map[netmodel.IP]struct{})
	)
	valStart := time.Now()
	errCerts := st.Certs(func(batch []corpus.CertRecord) error {
		for i := range batch {
			certIPs[batch[i].IP] = struct{}{}
		}
		records = p.validateBatch(res, asSet, orgs, records, batch, at, mapper)
		return nil
	})
	keyword := keywordIPs(records)
	st.HeaderIPs = keyword
	errHTTPS := st.HTTPS(func(batch []corpus.HeaderRecord) error {
		indexHeaders(httpsIdx, keyword, batch)
		return nil
	})
	errHTTP := st.HTTP(func(batch []corpus.HeaderRecord) error {
		// §6.2: answered on port 80 but presented no certificate.
		for i := range batch {
			if _, onTLS := certIPs[batch[i].IP]; !onTLS {
				httpOnly[batch[i].IP] = struct{}{}
			}
		}
		indexHeaders(httpIdx, keyword, batch)
		return nil
	})
	if err := cmp.Or(errCerts, errHTTPS, errHTTP); err != nil {
		return nil, err
	}
	res.TotalCertASes = len(asSet)
	m.Histogram("funnel.validate_ns").Since(valStart)

	p.matchAndCount(res, records, httpsIdx, httpIdx)

	lookups := p.netflixLookups(res, mapper)
	m.Histogram("funnel.run_ns").Since(runStart)
	return &SnapshotInference{Result: res, HTTPOnlyIPs: httpOnly, NetflixLookups: lookups}, nil
}

// keywordIPs is the set of IPs of the validated keyword records: §4.5
// reads the headers of §4.3 candidates only, and each is one of them.
func keywordIPs(records []record) map[netmodel.IP]struct{} {
	ips := make(map[netmodel.IP]struct{}, len(records))
	for i := range records {
		ips[records[i].ip] = struct{}{}
	}
	return ips
}

// indexHeaders folds one batch of header records into a per-IP index,
// keeping only the IPs in keep; a later record for the same IP replaces
// an earlier one.
func indexHeaders(idx map[netmodel.IP][]hg.Header, keep map[netmodel.IP]struct{}, batch []corpus.HeaderRecord) {
	for _, r := range batch {
		if _, ok := keep[r.IP]; ok {
			idx[r.IP] = r.Headers
		}
	}
}
