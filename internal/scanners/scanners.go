// Package scanners emulates the scan campaigns behind the public
// corpuses. Each vendor profile sweeps the world's responsive hosts with
// its own blind spots — opt-out blocklists that grow over the years,
// rate-limit losses, and different collection start dates for HTTPS
// headers — and emits corpus.Snapshot records identical in shape to what
// Rapid7 and Censys publish. The certigo profile reproduces the authors'
// own slower but less-filtered active scan (§5, Table 2).
package scanners

import (
	"offnetscope/internal/astopo"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// Profile describes one scanning campaign's behaviour.
type Profile struct {
	Vendor corpus.Vendor
	// BlocklistFrac is the base fraction of ASes that asked to be
	// excluded from this vendor's scans.
	BlocklistFrac float64
	// BlocklistGrowth is added to BlocklistFrac per snapshot — both
	// long-running projects accumulate complaints over the years (§5).
	BlocklistGrowth float64
	// DropFrac is the per-host probability of missing a response to
	// rate limiting; slow scans (certigo ran for four days) lose less.
	DropFrac float64
	// CertsFrom / HTTPSHeadersFrom / HTTPHeadersFrom gate availability:
	// records before these snapshots don't exist in the vendor's corpus.
	CertsFrom        timeline.Snapshot
	HTTPSHeadersFrom timeline.Snapshot
	HTTPHeadersFrom  timeline.Snapshot
	// NoHeaders disables header collection entirely (pure TLS scan).
	NoHeaders bool
}

// Rapid7Profile is the study's main longitudinal corpus: certificates
// and HTTP headers from 2013-10, HTTPS headers from 2016-07.
func Rapid7Profile() Profile {
	return Profile{
		Vendor:           corpus.Rapid7,
		BlocklistFrac:    0.020,
		BlocklistGrowth:  0.0008,
		DropFrac:         0.13,
		CertsFrom:        0,
		HTTPSHeadersFrom: 11, // 2016-07
		HTTPHeadersFrom:  0,
	}
}

// CensysProfile covers 2019-10 onwards with both header corpuses.
func CensysProfile() Profile {
	return Profile{
		Vendor:           corpus.Censys,
		BlocklistFrac:    0.025,
		BlocklistGrowth:  0.0008,
		DropFrac:         0.12,
		CertsFrom:        24, // 2019-10
		HTTPSHeadersFrom: 24,
		HTTPHeadersFrom:  24,
	}
}

// CertigoProfile is the authors' one-off four-day active scan of
// November 2019: almost no exclusions, little rate limiting, no headers.
func CertigoProfile() Profile {
	return Profile{
		Vendor:        corpus.Certigo,
		BlocklistFrac: 0.002,
		DropFrac:      0.02,
		CertsFrom:     24,
		NoHeaders:     true,
	}
}

// Available reports whether the vendor has certificate data for s.
func (p Profile) Available(s timeline.Snapshot) bool { return s >= p.CertsFrom }

// excluded reports whether as opted out of this vendor's scans by
// snapshot s. Once excluded, always excluded (removal requests are not
// retracted).
func (p Profile) excluded(as astopo.ASN, s timeline.Snapshot) bool {
	frac := p.BlocklistFrac + p.BlocklistGrowth*float64(s)
	h := hashScan(string(p.Vendor), uint64(as), 0, 0)
	joined := float64(h%100000) / 100000 // when in [0,1] the AS opted out
	return joined < frac
}

// dropped reports whether this particular probe got rate limited.
func (p Profile) dropped(ip netmodel.IP, s timeline.Snapshot, port uint64) bool {
	h := hashScan(string(p.Vendor), uint64(ip), uint64(s), port)
	return float64(h%100000)/100000 < p.DropFrac
}

// sees reports whether p's sweep at s receives h's answer on port 443
// (TLS and HTTPS) or 80 (HTTP). It is the vendor's whole filter: each
// port's probe is rate limited independently, and a blocklisted AS is
// never probed unless a hypergiant owns it — hypergiants never opt
// their own serving infrastructure out of scans; blocklists are an
// eyeball-network phenomenon.
func (p Profile) sees(w *worldsim.World, h *worldsim.Host, s timeline.Snapshot, port uint64) bool {
	up := h.HTTPSUp
	if port == 80 {
		up = h.HTTPUp
	}
	if !up || p.dropped(h.IP, s, port) {
		return false
	}
	_, isOnNet := w.HGOfOnNetAS(h.TrueAS)
	return isOnNet || !p.excluded(h.TrueAS, s)
}

func hashScan(vendor string, a, b, c uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(vendor); i++ {
		h ^= uint64(vendor[i])
		h *= 1099511628211
	}
	for _, x := range []uint64{a, b, c} {
		h ^= x
		h *= 1099511628211
		h ^= h >> 29
	}
	return h
}

// Scan sweeps the world at snapshot s with profile p. It returns nil if
// the vendor has no data for that month.
func Scan(w *worldsim.World, p Profile, s timeline.Snapshot) *corpus.Snapshot {
	if !p.Available(s) {
		return nil
	}
	snap := &corpus.Snapshot{Vendor: p.Vendor, Snapshot: s}
	wantHTTPS := !p.NoHeaders && s >= p.HTTPSHeadersFrom
	wantHTTP := !p.NoHeaders && s >= p.HTTPHeadersFrom

	w.Hosts(s, func(h *worldsim.Host) bool {
		if p.sees(w, h, s, 443) {
			if h.Chain != nil {
				snap.Certs = append(snap.Certs, corpus.CertRecord{IP: h.IP, Chain: h.Chain})
			}
			if wantHTTPS && h.HTTPSHeaders != nil {
				snap.HTTPS = append(snap.HTTPS, corpus.HeaderRecord{IP: h.IP, Headers: h.HTTPSHeaders})
			}
		}
		if wantHTTP && p.sees(w, h, s, 80) {
			snap.HTTP = append(snap.HTTP, corpus.HeaderRecord{IP: h.IP, Headers: h.HTTPHeaders})
		}
		return true
	})
	return snap
}

// ScanStream sweeps the world at snapshot s like Scan, but exposes the
// result as a corpus.Stream of chunked record batches instead of a
// materialized Snapshot: records are synthesized during consumption, so
// a month's corpus never exists in memory all at once. The certs pass
// walks the cheap header-free enumeration (worldsim.CertHosts); the
// header passes run the full one only when the profile actually
// collects headers at s. Record order and filtering are identical to
// Scan's, making the streamed corpus byte-equivalent at any chunk size.
// Like Scan, it returns nil when the vendor has no data for the month.
func ScanStream(w *worldsim.World, p Profile, s timeline.Snapshot, chunk int) *corpus.Stream {
	if !p.Available(s) {
		return nil
	}
	if chunk <= 0 {
		chunk = corpus.DefaultChunkSize
	}
	wantHTTPS := !p.NoHeaders && s >= p.HTTPSHeadersFrom
	wantHTTP := !p.NoHeaders && s >= p.HTTPHeadersFrom
	st := &corpus.Stream{Vendor: p.Vendor, Snapshot: s}
	st.Certs = func(yield func([]corpus.CertRecord) error) error {
		cy := newChunkYielder(chunk, yield)
		w.CertHosts(s, func(h *worldsim.Host) bool {
			if h.Chain != nil && p.sees(w, h, s, 443) {
				return cy.add(corpus.CertRecord{IP: h.IP, Chain: h.Chain})
			}
			return true
		})
		return cy.finish()
	}
	st.HTTPS = func(yield func([]corpus.HeaderRecord) error) error {
		if !wantHTTPS {
			return nil
		}
		cy := newChunkYielder(chunk, yield)
		w.Hosts(s, func(h *worldsim.Host) bool {
			if h.HTTPSHeaders != nil && p.sees(w, h, s, 443) {
				return cy.add(corpus.HeaderRecord{IP: h.IP, Headers: h.HTTPSHeaders})
			}
			return true
		})
		return cy.finish()
	}
	st.HTTP = func(yield func([]corpus.HeaderRecord) error) error {
		if !wantHTTP {
			return nil
		}
		cy := newChunkYielder(chunk, yield)
		w.Hosts(s, func(h *worldsim.Host) bool {
			if p.sees(w, h, s, 80) {
				return cy.add(corpus.HeaderRecord{IP: h.IP, Headers: h.HTTPHeaders})
			}
			return true
		})
		return cy.finish()
	}
	return st
}

// chunkYielder accumulates records into one reused batch buffer and
// forwards every full batch to yield, honouring the corpus.Stream
// batch-reuse contract.
type chunkYielder[T any] struct {
	batch []T
	yield func([]T) error
	err   error
}

func newChunkYielder[T any](chunk int, yield func([]T) error) *chunkYielder[T] {
	return &chunkYielder[T]{batch: make([]T, 0, chunk), yield: yield}
}

// add appends one record, flushing at the chunk size; false means a
// yield failed and enumeration must stop.
func (c *chunkYielder[T]) add(rec T) bool {
	c.batch = append(c.batch, rec)
	if len(c.batch) == cap(c.batch) {
		if c.err = c.yield(c.batch); c.err != nil {
			return false
		}
		c.batch = c.batch[:0]
	}
	return true
}

// finish flushes the trailing partial batch and reports the stream's
// error, if any yield returned one.
func (c *chunkYielder[T]) finish() error {
	if c.err != nil {
		return c.err
	}
	if len(c.batch) > 0 {
		return c.yield(c.batch)
	}
	return nil
}

// ProbeResult is one ZGrab2-style targeted grab: TLS with explicit SNI
// plus an HTTP GET with the matching Host header (§5's active
// validation).
type ProbeResult struct {
	IP        netmodel.IP
	Domain    string
	Reachable bool
	// TLSValid reports whether the handshake produced a chain that is
	// valid (§4.1 rules) *and* covers the requested domain — the
	// paper's "correctly validated" criterion.
	TLSValid bool
	Chain    certmodel.Chain
	Headers  []hg.Header
}

// ZGrab performs one targeted (IP, domain) grab against the world.
func ZGrab(w *worldsim.World, ip netmodel.IP, domain string, s timeline.Snapshot) ProbeResult {
	res := w.Probe(ip, domain, s)
	out := ProbeResult{IP: ip, Domain: domain, Reachable: res.Reachable, Chain: res.Chain, Headers: res.Headers}
	if !res.Reachable || !res.ServesDomain {
		return out
	}
	if err := certmodel.Verify(res.Chain, s.MidTime(), w.TrustStore()); err != nil {
		return out
	}
	covered := false
	for _, pat := range res.Chain.LeafDNSNames() {
		if hg.MatchDomain(pat, domain) {
			covered = true
			break
		}
	}
	out.TLSValid = covered
	return out
}
