// Package waves runs supervised scan waves for the continuous-
// measurement daemon (cmd/offnetwatchd): each wave probes a fixed
// target list with the live scanner (internal/probe), turns what the
// targets answered into corpus records, runs the one §4 inference
// engine (core.Pipeline) over them, folds the confirmed off-nets into
// the longitudinal builder, and commits the result as one new
// generation in the append-only generation log (footstore.GenLog).
//
// Live targets need not have distinct IPs (the demo farm serves every
// server from 127.0.0.1), so records are keyed by the target's position
// in the list (Key), which the engine's mapper resolves to the
// target's AS. cmd/livescan uses the same Sweep and Infer.
//
// A wave is one sweep of every target under a deadline, and it is
// crash-only: it commits whole or not at all.
//
//   - a wave that concluded fewer targets than MinCoverage still
//     commits, with a "reduced-coverage" verdict, mirroring offnetmap's
//     degraded-mode semantics;
//   - a failed dial or handshake is retried with capped, jittered
//     backoff (probe.Config.Retries); every wave probes every target
//     afresh, however often it failed before;
//   - a wave that concluded nothing fails (ErrWaveFailed) and commits
//     nothing; so does one whose sweep the deadline cut short, since a
//     partial sweep concludes nothing. The daemon logs it and tries
//     again next interval;
//   - nothing of a wave outlives it but its committed generation: a
//     wave that shutdown or SIGKILL interrupts is probed again from the
//     start when the daemon next runs. The generation log's manifest
//     rename is the one commit point.
//
// The timeline grid is finite (31 quarterly snapshots); each committed
// wave occupies the next free snapshot, and ErrGridExhausted tells the
// daemon the study window is full.
package waves

import (
	"bytes"
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/probe"
	"offnetscope/internal/servefarm"
	"offnetscope/internal/timeline"
)

// Target is one scan destination with its (known) origin AS — the live
// analogue of a cert-corpus row already resolved through the IP-to-AS
// table.
type Target struct {
	Addr string // host:port to probe
	AS   astopo.ASN
}

// PrefixRow seeds the store's IP-to-AS table when the log starts empty.
type PrefixRow struct {
	Prefix  netmodel.Prefix
	Origins []astopo.ASN
}

// FarmTargets is the demo farm as a target list: each server at its
// AS, and a /24 per AS from the benchmarking range seeding the store's
// IP-to-AS table, so committed stores answer IP lookups too.
func FarmTargets(d *servefarm.Demo) ([]Target, []PrefixRow) {
	targets := make([]Target, len(d.Servers))
	prefixes := make([]PrefixRow, len(d.Servers))
	for i, s := range d.Servers {
		targets[i] = Target{Addr: s.TLSAddr, AS: d.ASes[i]}
		prefixes[i] = PrefixRow{
			Prefix:  netmodel.MakePrefix(netmodel.MakeIP(198, 18, byte(i), 0), 24),
			Origins: []astopo.ASN{d.ASes[i]},
		}
	}
	return targets, prefixes
}

// Config tunes the wave runner.
type Config struct {
	// Probe configures the scanner (concurrency, rate, timeout,
	// retries). Its Metrics field is overridden with Config.Metrics.
	Probe probe.Config
	// Trust is §4.1's root store. Required.
	Trust *certmodel.TrustStore
	// Orgs is the AS-to-organization registry that supplies §4.2's
	// on-net ASes. Required.
	Orgs *astopo.OrgDB
	// WaveTimeout bounds a wave's sweep. Zero means 2m.
	WaveTimeout time.Duration
	// MinCoverage is the concluded-target fraction below which a wave
	// commits with a reduced-coverage verdict. Zero means 0.5.
	MinCoverage float64
	// Prefixes is installed into the builder when the log is empty.
	Prefixes []PrefixRow
	// Metrics receives waves.*, probe.* and the engine's funnel.*
	// accounting. Nil discards.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.WaveTimeout <= 0 {
		c.WaveTimeout = 2 * time.Minute
	}
	if !(c.MinCoverage > 0) { // also NaN
		c.MinCoverage = 0.5
	}
	c.Probe.Metrics = c.Metrics
	return c
}

// Wave verdicts.
const (
	VerdictFull    = "full"
	VerdictReduced = "reduced-coverage"
)

// ErrGridExhausted means every snapshot slot of the timeline grid holds
// a committed generation; the study window is complete.
var ErrGridExhausted = errors.New("waves: timeline grid exhausted")

// ErrWaveFailed means a wave concluded zero targets, or its sweep ran
// past the wave deadline and so concluded nothing: there is nothing to
// commit, and the retry probes every target again.
var ErrWaveFailed = errors.New("waves: wave concluded no targets")

// Result summarises one committed wave.
type Result struct {
	Generation uint64            // generation the wave committed as
	Snapshot   timeline.Snapshot // grid slot the wave filled
	Verdict    string            // VerdictFull or VerdictReduced
	Targets    int               // targets in the wave
	Concluded  int               // targets that yielded a verdict
	Failed     int               // targets whose probes never succeeded
	Confirmed  int               // confirmed off-net IPs, summed over hypergiants
	Elapsed    time.Duration
}

// Runner drives scan waves against one target list, committing each
// into the generation log. Not safe for concurrent use.
type Runner struct {
	log     *footstore.GenLog
	targets []Target
	cfg     Config
	scanner *probe.Scanner

	builder *footstore.Builder
	next    timeline.Snapshot
	// dirty marks the builder as possibly diverged from the log (an
	// append failed after AddSnapshot); the next wave rebuilds it from
	// the newest committed generation before trusting it.
	dirty bool
}

// NewRunner builds a runner. When the log already holds generations,
// the builder — and the next free snapshot slot — are reconstructed
// from the newest committed one, so a restarted daemon continues the
// timeline instead of restarting it.
func NewRunner(log *footstore.GenLog, targets []Target, cfg Config) (*Runner, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("waves: no targets")
	}
	cfg = cfg.withDefaults()
	r := &Runner{
		log:     log,
		targets: append([]Target(nil), targets...),
		cfg:     cfg,
		scanner: probe.New(cfg.Probe),
	}
	if err := r.rebuild(); err != nil {
		r.scanner.Close()
		return nil, err
	}
	return r, nil
}

// rebuild derives the builder and next slot from the log's committed
// state — used at startup and after a failed append.
func (r *Runner) rebuild() error {
	if r.log.Len() == 0 {
		b := footstore.NewBuilder()
		for _, p := range r.cfg.Prefixes {
			b.AddPrefix(p.Prefix, p.Origins)
		}
		r.builder, r.next, r.dirty = b, 0, false
		return nil
	}
	st, err := r.log.Load(r.log.Last())
	if err != nil {
		return fmt.Errorf("waves: rebuilding from generation %d: %w", r.log.Last(), err)
	}
	r.builder = footstore.NewBuilderFrom(st)
	r.next = st.Latest() + 1
	r.dirty = false
	return nil
}

// NextSnapshot returns the grid slot the next wave will fill.
func (r *Runner) NextSnapshot() timeline.Snapshot { return r.next }

// Close releases the scanner.
func (r *Runner) Close() { r.scanner.Close() }

// Observation is what one target answered in a sweep: its chain (DER,
// leaf first; empty when the handshake never succeeded) and HTTPS
// headers.
type Observation struct {
	Chain   [][]byte
	Headers []hg.Header
}

// Sweep probes addrs the way the vendor corpora were collected: every
// address's default certificate chain (no SNI), then an HTTPS GET of
// every address whose handshake succeeded, naming no hostname of its
// own. The i-th observation is what addrs[i] answered. It returns nil
// when ctx ended mid-sweep, because the observations are then partial.
func Sweep(ctx context.Context, s *probe.Scanner, addrs []string) []Observation {
	out := make([]Observation, len(addrs))
	var live []string
	var liveIdx []int
	for i, c := range s.FetchCerts(ctx, addrs) {
		if c.Err != nil {
			continue
		}
		for _, cert := range c.Chain {
			out[i].Chain = append(out[i].Chain, cert.Raw)
		}
		live, liveIdx = append(live, addrs[i]), append(liveIdx, i)
	}
	for j, h := range s.FetchHeaders(ctx, live) {
		if h.Err == nil {
			out[liveIdx[j]].Headers = h.Headers
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	return out
}

// Key is the record key of the target at position i of its list.
func Key(i int) netmodel.IP { return netmodel.IP(i) }

// positions is the engine's IP-to-AS mapper for a sweep: it resolves a
// record key to its target's AS.
type positions []Target

func (t positions) Lookup(ip netmodel.IP) []astopo.ASN { return []astopo.ASN{t[ip].AS} }

// Infer runs the one §4 engine (core.Pipeline, the paper's
// configuration) over one sweep as snapshot s: obs[i] is what
// targets[i] answered, and chains validate at at, which must be no
// earlier than the sweep's last probe. Only c's Trust, Orgs and Metrics
// are read.
func (c Config) Infer(s timeline.Snapshot, at time.Time, targets []Target, obs []Observation) *core.Result {
	snap := &corpus.Snapshot{Vendor: corpus.Certigo, Snapshot: s}
	for i, o := range obs {
		chain, err := x509.ParseCertificates(bytes.Join(o.Chain, nil))
		if err != nil || len(chain) == 0 {
			continue // crypto/tls parsed it once
		}
		snap.Certs = append(snap.Certs, corpus.CertRecord{IP: Key(i), Chain: certmodel.FromX509(chain, c.Trust)})
		if len(o.Headers) > 0 {
			snap.HTTPS = append(snap.HTTPS, corpus.HeaderRecord{IP: Key(i), Headers: o.Headers})
		}
	}
	p := &core.Pipeline{
		Trust:   c.Trust,
		Orgs:    c.Orgs,
		Mapper:  func(timeline.Snapshot) core.IPMapper { return positions(targets) },
		Opts:    core.DefaultOptions(),
		Metrics: c.Metrics,
	}
	st := corpus.StreamOf(snap, 0)
	st.ScannedAt = at
	inf, _ := p.InferSnapshotStream(st) // an in-memory stream never fails
	return inf.Result
}

// RunWave runs one supervised wave: one sweep of every target under
// the wave deadline, inference, commit. A sweep the deadline cut short
// concludes nothing and returns ErrWaveFailed; a cancellation from the
// caller (daemon shutdown) returns ctx.Err(). Neither commits, and the
// next wave probes the same slot again.
func (r *Runner) RunWave(ctx context.Context) (*Result, error) {
	if !r.next.Valid() {
		return nil, ErrGridExhausted
	}
	if r.dirty {
		if err := r.rebuild(); err != nil {
			return nil, err
		}
		if !r.next.Valid() {
			return nil, ErrGridExhausted
		}
	}
	start := time.Now()
	r.cfg.Metrics.Counter("waves.started").Inc()

	addrs := make([]string, len(r.targets))
	for i, t := range r.targets {
		addrs[i] = t.Addr
	}
	wctx, cancel := context.WithTimeout(ctx, r.cfg.WaveTimeout)
	obs := Sweep(wctx, r.scanner, addrs) // nil if the deadline cut it short
	cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{Snapshot: r.next, Targets: len(r.targets)}
	for _, o := range obs {
		if len(o.Chain) > 0 {
			res.Concluded++
		} else {
			res.Failed++
		}
	}
	r.cfg.Metrics.Counter("waves.targets_probed").Add(int64(res.Concluded + res.Failed))
	r.cfg.Metrics.Counter("waves.targets_failed").Add(int64(res.Failed))

	if res.Concluded == 0 {
		// Nothing trustworthy at all — do not commit an empty wave.
		r.cfg.Metrics.Counter("waves.failed").Inc()
		return nil, ErrWaveFailed
	}

	// Validate at the moment of inference, after every probe.
	footprints := make(map[hg.ID][]astopo.ASN)
	for id, hr := range r.cfg.Infer(r.next, time.Now(), r.targets, obs).PerHG {
		if len(hr.ConfirmedASes) > 0 {
			footprints[id] = hr.SortedConfirmedASes()
			res.Confirmed += hr.ConfirmedIPs
		}
	}
	r.cfg.Metrics.Counter("waves.targets_confirmed").Add(int64(res.Confirmed))

	coverage := float64(res.Concluded) / float64(res.Targets)
	res.Verdict = VerdictFull
	if coverage < r.cfg.MinCoverage {
		res.Verdict = VerdictReduced
	}

	if err := r.builder.AddSnapshot(r.next, footprints); err != nil {
		r.dirty = true
		return nil, fmt.Errorf("waves: %w", err)
	}
	st, err := r.builder.Build()
	if err != nil {
		r.dirty = true
		return nil, fmt.Errorf("waves: %w", err)
	}
	gen, err := r.log.Append(st)
	if err != nil {
		r.dirty = true
		return nil, fmt.Errorf("waves: committing wave %s: %w", r.next.Label(), err)
	}
	res.Generation = gen
	r.next++

	res.Elapsed = time.Since(start)
	r.cfg.Metrics.Counter("waves.committed").Inc()
	if res.Verdict == VerdictReduced {
		r.cfg.Metrics.Counter("waves.reduced").Inc()
	}
	r.cfg.Metrics.Histogram("waves.duration_ns").Since(start)
	r.cfg.Metrics.Gauge("waves.generation").Set(int64(gen))
	return res, nil
}
