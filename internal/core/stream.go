package core

import (
	"sync"
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
// a bitmask of those hypergiants), the set of certificate IPs, and the
// HTTP(S) header indexes, which hold every header record of the month:
// memory is O(chunk + validated keyword records + the month's header
// records).
//
// Determinism contract: batches arrive in record order and validate in
// arrival order, so the fold order is chunk order, which is record
// order. Every counter adds, every set unions and every list appends in
// that order, which is why the output is byte-identical at any jobs ×
// chunk combination (pinned by the golden suite).

// InferSnapshotStream runs the full §4 inference over one snapshot's
// record stream and captures the envelope inputs. It drives all three
// record streams to completion on their own goroutines — so a stream's
// read accounting always finalizes — validating certificate batches as
// they arrive, then runs the match/confirm half on the validated
// records. The error is the stream's, with the fixed certs-https-http
// precedence: record-level damage accounting happened inside the stream
// per its ReadOptions, and a surfaced error means the month must be
// dropped.
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

	// The producer's record counts, when it knows them, pre-size the
	// per-month containers instead of growing them by doubling. Only the
	// few keyword records are kept, so records grows from empty.
	hint := st.SizeHint
	var (
		records  []record
		asSet    = make(map[astopo.ASN]struct{})
		orgs     = make(orgMatcher)
		certIPs  = make(map[netmodel.IP]struct{}, hint[0])
		httpsIdx = make(map[netmodel.IP][]hg.Header, hint[1])
		httpIdx  = make(map[netmodel.IP][]hg.Header, hint[2])
		errs     [3]error
	)
	valStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		// The consumer is a single goroutine, so batches validate
		// strictly in arrival order.
		errs[0] = st.Certs(func(batch []corpus.CertRecord) error {
			for i := range batch {
				certIPs[batch[i].IP] = struct{}{}
			}
			records = p.validateBatch(res, asSet, orgs, records, batch, at, mapper)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		errs[1] = st.HTTPS(func(batch []corpus.HeaderRecord) error {
			indexHeaders(httpsIdx, batch)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		errs[2] = st.HTTP(func(batch []corpus.HeaderRecord) error {
			indexHeaders(httpIdx, batch)
			return nil
		})
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.TotalCertASes = len(asSet)
	m.Histogram("funnel.validate_ns").Since(valStart)

	p.matchAndCount(res, records, httpsIdx, httpIdx)

	// Envelope inputs (§6.2): the HTTP-only set falls out of the index
	// keys, which are deduplicated by IP.
	httpOnly := make(map[netmodel.IP]struct{})
	for ip := range httpIdx {
		if _, onTLS := certIPs[ip]; !onTLS {
			httpOnly[ip] = struct{}{}
		}
	}
	lookups := p.netflixLookups(res, mapper)
	m.Histogram("funnel.run_ns").Since(runStart)
	return &SnapshotInference{Result: res, HTTPOnlyIPs: httpOnly, NetflixLookups: lookups}, nil
}

// indexHeaders folds one batch of header records into a per-IP index;
// a later record for the same IP replaces an earlier one.
func indexHeaders(idx map[netmodel.IP][]hg.Header, batch []corpus.HeaderRecord) {
	for _, r := range batch {
		idx[r.IP] = r.Headers
	}
}
