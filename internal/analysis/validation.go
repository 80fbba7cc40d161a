package analysis

import (
	"fmt"
	"sort"
	"strings"

	"offnetscope/internal/astopo"
	"offnetscope/internal/baselines"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/dnssim"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/rng"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
)

func init() {
	register("val-cross", "§5 validation: cross-HG domain requests against inferred off-nets", func(e *Env) Renderer { return ValCrossDomain(e) })
	register("val-sample", "§5 validation: random IP sample vs HG domains", func(e *Env) Renderer { return ValSample(e) })
	register("val-truth", "§5 validation: precision/recall against ground truth (operator survey)", func(e *Env) Renderer { return ValGroundTruth(e) })
	register("val-prior", "§5 validation: comparison with earlier per-HG mapping studies", func(e *Env) Renderer { return ValPrior(e) })
}

// ValCrossResult reproduces the §5 active-measurement validation: an
// inferred off-net should refuse TLS for domains its hypergiant does not
// host.
type ValCrossResult struct {
	Snapshot timeline.Snapshot
	OffNets  int
	// PctNoValidation is the share of inferred off-nets that validated
	// none of the foreign domains (paper: 89.7 %).
	PctNoValidation float64
	// ValidatorShare attributes the off-nets that did validate foreign
	// domains to their hypergiant (paper: 97 % Akamai).
	ValidatorShare map[hg.ID]float64
}

// ValCrossDomain probes every inferred off-net IP with popular domains
// of ten other hypergiants (ZGrab2-style, §5).
func ValCrossDomain(e *Env) *ValCrossResult {
	s := Nov2019
	res := e.Pipeline.Run(e.Scan(corpus.Rapid7, s))
	rnd := rng.New(e.World.Config().Seed).Fork("val-cross")

	out := &ValCrossResult{Snapshot: s, ValidatorShare: make(map[hg.ID]float64)}
	all := hg.All()
	noValidation := 0
	validators := make(map[hg.ID]int)
	totalValidators := 0

	for _, h := range all {
		hr := res.PerHG[h.ID]
		for _, ip := range hr.ConfirmedIPList {
			out.OffNets++
			validated := false
			for k := 0; k < 10; k++ {
				other := all[rnd.Intn(len(all))]
				if other.ID == h.ID {
					continue
				}
				domains := other.PopularDomains()
				domain := domains[rnd.Intn(len(domains))]
				if scanners.ZGrab(e.World, ip, domain, s).TLSValid {
					validated = true
					break
				}
			}
			if validated {
				validators[h.ID]++
				totalValidators++
			} else {
				noValidation++
			}
		}
	}
	if out.OffNets > 0 {
		out.PctNoValidation = 100 * float64(noValidation) / float64(out.OffNets)
	}
	for id, n := range validators {
		if totalValidators > 0 {
			out.ValidatorShare[id] = 100 * float64(n) / float64(totalValidators)
		}
	}
	return out
}

// Render implements Renderer.
func (v *ValCrossResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-domain validation @ %s: %d inferred off-net IPs\n", v.Snapshot.Label(), v.OffNets)
	fmt.Fprintf(&b, "%.1f%% validated no foreign domain (paper: 89.7%%)\n", v.PctNoValidation)
	b.WriteString("off-nets that validated foreign domains, by hypergiant:\n")
	var ids []hg.ID
	for id := range v.ValidatorShare {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		si, sj := v.ValidatorShare[ids[i]], v.ValidatorShare[ids[j]]
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		fmt.Fprintf(&b, "  %-12s %5.1f%%\n", id, v.ValidatorShare[id])
	}
	return b.String()
}

// ValSampleResult reproduces the §5 random-sample validation: servers
// outside hypergiant address space should not serve hypergiant domains
// unless we inferred them to be off-nets.
type ValSampleResult struct {
	Snapshot        timeline.Snapshot
	Sampled         int
	ValidResponders int
	PctValid        float64 // paper: 0.1 %
	// PctInferred is the share of valid responders the pipeline had
	// already inferred (paper: 98 %).
	PctInferred float64
}

// ValSample probes a random sample of non-on-net certificate IPs with
// random hypergiant domains.
func ValSample(e *Env) *ValSampleResult {
	s := timeline.Snapshot(28) // 2020-10, the paper's November 2020 check
	snap := e.Scan(corpus.Rapid7, s)
	res := e.Pipeline.Run(snap)
	rnd := rng.New(e.World.Config().Seed).Fork("val-sample")

	onNet := make(map[astopo.ASN]struct{})
	inferredIPs := make(map[netmodel.IP]struct{})
	for _, hr := range res.PerHG {
		for _, as := range hr.OnNetASes {
			onNet[as] = struct{}{}
		}
		for _, ip := range hr.ConfirmedIPList {
			inferredIPs[ip] = struct{}{}
		}
		for _, ip := range hr.CandidateIPList {
			inferredIPs[ip] = struct{}{}
		}
	}

	mapper := e.World.IP2AS(s)
	all := hg.All()
	out := &ValSampleResult{Snapshot: s}
	inferredValid := 0
	for _, cr := range snap.Certs {
		if !rnd.Bool(0.25) { // the paper's 25 % sample
			continue
		}
		if anyASIn(mapper.Lookup(cr.IP), onNet) {
			continue
		}
		out.Sampled++
		valid := false
		for k := 0; k < 10 && !valid; k++ {
			h := all[rnd.Intn(len(all))]
			domains := h.PopularDomains()
			if scanners.ZGrab(e.World, cr.IP, domains[rnd.Intn(len(domains))], s).TLSValid {
				valid = true
			}
		}
		if valid {
			out.ValidResponders++
			if _, ok := inferredIPs[cr.IP]; ok {
				inferredValid++
			}
		}
	}
	if out.Sampled > 0 {
		out.PctValid = 100 * float64(out.ValidResponders) / float64(out.Sampled)
	}
	if out.ValidResponders > 0 {
		out.PctInferred = 100 * float64(inferredValid) / float64(out.ValidResponders)
	}
	return out
}

func anyASIn(asns []astopo.ASN, set map[astopo.ASN]struct{}) bool {
	for _, as := range asns {
		if _, ok := set[as]; ok {
			return true
		}
	}
	return false
}

// Render implements Renderer.
func (v *ValSampleResult) Render() string {
	return fmt.Sprintf(
		"Random-sample validation @ %s: sampled %d non-on-net cert IPs\n"+
			"%d (%.2f%%) validated a HG domain (paper: 0.1%%)\n"+
			"%.1f%% of valid responders were already inferred (paper: 98%%)\n",
		v.Snapshot.Label(), v.Sampled, v.ValidResponders, v.PctValid, v.PctInferred)
}

// ValTruthResult summarizes accuracy for every hypergiant with a
// footprint — the exact analogue of the paper's operator survey. The
// rows come from the shared scorer (score.go) that the scenario-matrix
// harness also uses.
type ValTruthResult struct {
	Snapshot timeline.Snapshot
	Rows     []HGScore
}

// ValGroundTruth compares inferred and true footprints at the end of the
// study.
func ValGroundTruth(e *Env) *ValTruthResult {
	sc := ScoreStudyAt(e.World, e.Study(corpus.Rapid7), LastSnapshot())
	return &ValTruthResult{Snapshot: sc.Snapshot, Rows: sc.Rows}
}

// Render implements Renderer.
func (v *ValTruthResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ground-truth validation @ %s (paper's survey: 89-95%% of hosting ASes uncovered)\n", v.Snapshot.Label())
	fmt.Fprintf(&b, "%-12s %8s %9s %8s %10s\n", "hypergiant", "truth", "inferred", "recall", "precision")
	for _, r := range v.Rows {
		fmt.Fprintf(&b, "%-12s %8d %9d %7.1f%% %9.1f%%\n", r.HG, r.Truth, r.Inferred, r.Recall, r.Precision)
	}
	// The appendix-A.4 survey, answered from the measured numbers: what
	// each top-4 "operator" would have told the authors.
	b.WriteString("simulated operator survey (appendix A.4):\n")
	for _, r := range v.Rows {
		if !hg.IsTop4(r.HG) || r.Truth == 0 {
			continue
		}
		missErr := 100 - r.Recall
		overErr := 100 - r.Precision
		rating := "Good"
		switch {
		case missErr <= 5 && overErr <= 5:
			rating = "Very good"
		case missErr <= 10 && overErr <= 10:
			rating = "Good"
		default:
			rating = "Poor"
		}
		direction := "estimation is quite accurate"
		if missErr > overErr+1 {
			direction = "underestimate"
		} else if overErr > missErr+1 {
			direction = "overestimate"
		}
		fmt.Fprintf(&b, "  %-10s Q1 rating: %-9s  Q2: %-26s  Q3 error: miss %.0f%% / extra %.0f%%\n",
			r.HG, rating, direction, missErr, overErr)
	}
	return b.String()
}

// ValPriorRow compares our inference with one simulated earlier study.
type ValPriorRow struct {
	Study    string
	HG       hg.ID
	Snapshot timeline.Snapshot
	// PriorASes is the earlier study's footprint; Found is how many of
	// them our technique also uncovered; Additional is what we found
	// beyond the earlier study.
	PriorASes, Found, Additional int
	PctFound                     float64
}

// ValPriorResult reproduces the §5 comparisons with earlier approaches.
type ValPriorResult struct {
	Rows []ValPriorRow
}

// priorStudy simulates an earlier mapping effort: a technique-specific
// sample of the true footprint (ECS mapping and naming-convention
// guessing both miss some hosts and carry some stale entries).
func priorStudy(e *Env, id hg.ID, s timeline.Snapshot, coverage float64, label string) ValPriorRow {
	rnd := rng.New(e.World.Config().Seed).Fork("val-prior/" + label + s.Label())
	truth := e.World.TrueOffNetASes(id, s)
	prior := make(map[astopo.ASN]struct{})
	for _, as := range truth {
		if rnd.Bool(coverage) {
			prior[as] = struct{}{}
		}
	}
	// Stale entries: ASes that hosted the HG earlier but no longer do.
	if s >= 4 {
		for _, as := range e.World.TrueOffNetASes(id, s-4) {
			if rnd.Bool(0.03) {
				prior[as] = struct{}{}
			}
		}
	}
	inferred := hostingSetAt(e, id, s)
	found, additional := 0, 0
	for as := range prior {
		if _, ok := inferred[as]; ok {
			found++
		}
	}
	for as := range inferred {
		if _, ok := prior[as]; !ok {
			additional++
		}
	}
	row := ValPriorRow{Study: label, HG: id, Snapshot: s, PriorASes: len(prior), Found: found, Additional: additional}
	if len(prior) > 0 {
		row.PctFound = 100 * float64(found) / float64(len(prior))
	}
	return row
}

// ValPrior runs the three §5 comparisons. The Google and Facebook
// entries run the *actual* earlier techniques (package baselines) over
// the DNS control plane: ECS enumeration while Google still answered it,
// and FNA hostname guessing; the Netflix entry simulates the published
// Open Connect study as a high-coverage sample.
func ValPrior(e *Env) *ValPriorResult {
	out := &ValPriorResult{}
	resolver := dnssim.New(e.World)

	// ECS mapping, run just before Google's 2016 lockdown.
	ecsAt := dnssim.ECSCutoff - 1
	ecs := baselines.ECSMap(resolver, e.World, e.World.IP2AS(ecsAt), hg.Google, ecsAt)
	out.Rows = append(out.Rows, comparePrior(e, hg.Google, ecsAt, ecs, "ECS mapping (run)"))

	// FNA naming maps at the three dates the community published.
	for _, s := range []timeline.Snapshot{18, 24, 30} {
		fna := baselines.FNAMap(resolver, e.World, e.World.IP2AS(s), s, 60, 6)
		out.Rows = append(out.Rows, comparePrior(e, hg.Facebook, s, fna, "FNA naming map (run)"))
	}
	out.Rows = append(out.Rows, priorStudy(e, hg.Netflix, 14, 0.95, "Open Connect study"))
	return out
}

// comparePrior measures how much of a baseline technique's footprint our
// pipeline also uncovered, and what it found beyond it.
func comparePrior(e *Env, id hg.ID, s timeline.Snapshot, prior map[astopo.ASN]struct{}, label string) ValPriorRow {
	inferred := hostingSetAt(e, id, s)
	found, additional := 0, 0
	for as := range prior {
		if _, ok := inferred[as]; ok {
			found++
		}
	}
	for as := range inferred {
		if _, ok := prior[as]; !ok {
			additional++
		}
	}
	row := ValPriorRow{Study: label, HG: id, Snapshot: s, PriorASes: len(prior), Found: found, Additional: additional}
	if len(prior) > 0 {
		row.PctFound = 100 * float64(found) / float64(len(prior))
	}
	return row
}

// Render implements Renderer.
func (v *ValPriorResult) Render() string {
	var b strings.Builder
	b.WriteString("Comparison with earlier per-HG studies (paper: 94-98% of prior ASes uncovered)\n")
	fmt.Fprintf(&b, "%-28s %-10s %-8s %7s %7s %7s %8s\n", "study", "HG", "when", "prior", "found", "extra", "%found")
	for _, r := range v.Rows {
		fmt.Fprintf(&b, "%-28s %-10s %-8s %7d %7d %7d %7.1f%%\n",
			r.Study, r.HG, r.Snapshot.Label(), r.PriorASes, r.Found, r.Additional, r.PctFound)
	}
	return b.String()
}

// --- ablations ---

func init() {
	register("ablation", "Ablations: what each methodology step contributes", func(e *Env) Renderer { return Ablations(e) })
}

// AblationRow is one disabled-step measurement.
type AblationRow struct {
	Name string
	// CandidateIPs/ASes across all hypergiants with the step disabled
	// vs the full methodology.
	BaselineASes, AblatedASes int
}

// AblationResult quantifies each filter's contribution.
type AblationResult struct {
	Snapshot timeline.Snapshot
	Rows     []AblationRow
}

// Ablations runs the pipeline with individual steps disabled.
func Ablations(e *Env) *AblationResult {
	s := LastSnapshot()
	snap := e.Scan(corpus.Rapid7, s)
	base := e.Pipeline.Run(snap)
	sumCand := func(r *core.Result) int {
		total := 0
		for _, hr := range r.PerHG {
			total += len(hr.CandidateASes)
		}
		return total
	}
	run := func(opts core.Options) *core.Result {
		p := *e.Pipeline
		p.Opts = opts
		return p.Run(snap)
	}
	out := &AblationResult{Snapshot: s}
	baseline := sumCand(base)
	for _, abl := range []struct {
		name string
		opts core.Options
	}{
		{"no chain validation (§4.1 off)", core.Options{HeaderMode: core.HeadersEither, DisableChainValidation: true}},
		{"no dNSName subset rule (§4.3 off)", core.Options{HeaderMode: core.HeadersEither, DisableDNSNameFilter: true}},
		{"no Cloudflare filter (§7 off)", core.Options{HeaderMode: core.HeadersEither, DisableCloudflareFilter: true}},
		{"no conflict priority (§7 off)", core.Options{HeaderMode: core.HeadersEither, DisableConflictPriority: true}},
	} {
		res := run(abl.opts)
		row := AblationRow{Name: abl.name, BaselineASes: baseline, AblatedASes: sumCand(res)}
		if abl.name == "no conflict priority (§7 off)" {
			// Conflict priority affects confirmation, not candidates.
			row.BaselineASes = sumConfirmed(base)
			row.AblatedASes = sumConfirmed(res)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func sumConfirmed(r *core.Result) int {
	total := 0
	for _, hr := range r.PerHG {
		total += len(hr.ConfirmedASes)
	}
	return total
}

// Render implements Renderer.
func (a *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations @ %s (candidate ASes summed over all hypergiants)\n", a.Snapshot.Label())
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-36s baseline %6d → ablated %6d (+%d)\n",
			r.Name, r.BaselineASes, r.AblatedASes, r.AblatedASes-r.BaselineASes)
	}
	return b.String()
}
