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
// Waves are crash-only and degrade instead of aborting:
//
//   - a per-wave deadline bounds the whole wave; a wave that ran out of
//     time (or concluded fewer targets than MinCoverage) still commits,
//     with a "reduced-coverage" verdict, mirroring offnetmap's
//     degraded-mode semantics;
//   - a failed dial or handshake is retried with capped, jittered
//     backoff (probe.Config.Retries); every wave probes every target
//     afresh, however often it failed before;
//   - progress is checkpointed batch-by-batch through runstate blobs,
//     so a SIGKILL mid-wave resumes the wave where it stopped instead
//     of re-probing concluded targets; the checkpoint holds chains and
//     headers, never verdicts, so they are validated again on resume;
//   - only a wave that concluded nothing at all fails (ErrWaveFailed) —
//     the daemon logs it and tries again next interval.
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
	// WaveTimeout bounds one whole wave. Zero means 2m.
	WaveTimeout time.Duration
	// MinCoverage is the concluded-target fraction below which a wave
	// commits with a reduced-coverage verdict. Zero means 0.5.
	MinCoverage float64
	// CheckpointDir holds mid-wave progress blobs (runstate). Empty
	// disables checkpointing; a killed wave then restarts from scratch.
	CheckpointDir string
	// BatchSize is how many targets are probed between checkpoints.
	// Zero means 16.
	BatchSize int
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
	if c.BatchSize <= 0 {
		c.BatchSize = 16
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

// ErrWaveFailed means a wave concluded zero targets — nothing to
// commit. The wave's checkpoint is cleared so the retry re-probes
// everything.
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
	Resumed    int               // outcomes restored from the checkpoint
	TimedOut   bool              // the wave deadline expired
	Elapsed    time.Duration
}

// Runner drives scan waves against one target list, committing each
// into the generation log. Not safe for concurrent use.
type Runner struct {
	log         *footstore.GenLog
	targets     []Target
	targetsHash uint64 // pins checkpoints to the target list
	cfg         Config
	scanner     *probe.Scanner

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
		log:         log,
		targets:     append([]Target(nil), targets...),
		targetsHash: hashTargets(targets),
		cfg:         cfg,
		scanner:     probe.New(cfg.Probe),
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
// headers. It is what a wave checkpoints.
type Observation struct {
	Addr    string      `json:"addr"`
	Chain   [][]byte    `json:"chain,omitempty"`
	Headers []hg.Header `json:"headers,omitempty"`
}

// Sweep probes addrs the way the vendor corpora were collected: every
// address's default certificate chain (no SNI), then an HTTPS GET of
// every address whose handshake succeeded, naming no hostname of its
// own. It returns nil when ctx ended mid-sweep, because the
// observations are then partial.
func Sweep(ctx context.Context, s *probe.Scanner, addrs []string) []Observation {
	out := make([]Observation, len(addrs))
	var live []string
	var liveIdx []int
	for i, c := range s.FetchCerts(ctx, addrs) {
		out[i].Addr = addrs[i]
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

// clock is the wall clock a wave validates chains at.
var clock = time.Now

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
			continue // crypto/tls parsed it once, and runstate checksums checkpoints
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

// RunWave runs one supervised wave: probe, infer, commit. A context
// cancellation from the caller (daemon shutdown) returns ctx.Err() with
// the checkpoint retained; the wave deadline expiring merely degrades
// the verdict.
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

	wctx, cancel := context.WithTimeout(ctx, r.cfg.WaveTimeout)
	defer cancel()

	seen, batches := r.loadCheckpoint()
	resumed := len(seen)
	r.cfg.Metrics.Counter("waves.resumed_targets").Add(int64(resumed))

	// Probe in deterministic batches, checkpointing after each, so a
	// kill loses at most one batch of work.
	var pending []string
	for _, t := range r.targets {
		if _, done := seen[t.Addr]; !done {
			pending = append(pending, t.Addr)
		}
	}
	for len(pending) > 0 && wctx.Err() == nil {
		n := min(r.cfg.BatchSize, len(pending))
		batch := Sweep(wctx, r.scanner, pending[:n])
		pending = pending[n:]
		if batch == nil {
			// The deadline or a shutdown landed mid-batch; its results
			// are partial and untrustworthy. Drop them.
			break
		}
		for _, o := range batch {
			seen[o.Addr] = o
		}
		if err := r.saveCheckpoint(batches, batch); err != nil {
			return nil, err
		}
		batches++
	}

	if err := ctx.Err(); err != nil {
		// Daemon shutdown, not a wave timeout: leave the checkpoint for
		// the next incarnation and surface the cancellation.
		return nil, err
	}

	res := &Result{
		Snapshot: r.next,
		Targets:  len(r.targets),
		Resumed:  resumed,
		TimedOut: wctx.Err() != nil,
	}
	obs := make([]Observation, len(r.targets))
	for i, t := range r.targets {
		o, ok := seen[t.Addr]
		if !ok {
			continue // never reached before the deadline
		}
		obs[i] = o
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
		r.clearCheckpoint(batches)
		r.cfg.Metrics.Counter("waves.failed").Inc()
		return nil, ErrWaveFailed
	}

	// Validate at the moment of inference, after every probe: a resumed
	// wave also holds chains minted after the wave first started.
	footprints := make(map[hg.ID][]astopo.ASN)
	for id, hr := range r.cfg.Infer(r.next, clock(), r.targets, obs).PerHG {
		if len(hr.ConfirmedASes) > 0 {
			footprints[id] = hr.SortedConfirmedASes()
			res.Confirmed += hr.ConfirmedIPs
		}
	}
	r.cfg.Metrics.Counter("waves.targets_confirmed").Add(int64(res.Confirmed))

	coverage := float64(res.Concluded) / float64(res.Targets)
	res.Verdict = VerdictFull
	if res.TimedOut || coverage < r.cfg.MinCoverage {
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
	r.clearCheckpoint(batches)
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
