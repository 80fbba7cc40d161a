// Package worldsim builds the ground-truth Internet the study measures:
// an AS topology with hypergiant on-net ASes, per-snapshot hypergiant
// off-net deployments following each company's published trajectory,
// certificate issuance with per-hypergiant strategies, HTTP(S) header
// behaviour, and the messy phenomena the paper has to cope with —
// Cloudflare customer certificates, the Netflix expired-cert/HTTP era,
// third-party CDN hosting, management-interface certificates, self-signed
// impostors, and a large population of unrelated TLS hosts.
//
// The world is a pure function of its Config: the same seed always
// produces bit-identical scan records. Packages scanners and core only
// ever see the measurement surface (HostState/Hosts/Probe); the ground
// truth accessors exist for validation experiments.
package worldsim

import (
	"fmt"
	"math"

	"offnetscope/internal/astopo"
	"offnetscope/internal/hg"
	"offnetscope/internal/timeline"
)

// Config controls world generation.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Scale linearly scales the world relative to the real Internet:
	// 1.0 means ~71k ASes at the final snapshot and paper-sized
	// hypergiant footprints; tests use much smaller values. Zero means
	// DefaultScale.
	Scale float64
	// BackgroundHostsPerAS is the mean number of unrelated TLS hosts
	// per AS at the final snapshot (the raw Rapid7 population of Fig 2).
	// Zero means the default of 40, which keeps hypergiant certificates
	// a small single-digit percentage of the corpus as in the paper.
	BackgroundHostsPerAS float64
	// Hide enables the §8 hide-and-seek countermeasures on every
	// hypergiant's off-nets, for studying how the methodology degrades
	// when operators try to evade it.
	Hide HideAndSeek
	// IPv6OnlyASFrac marks a fraction of eyeball ASes as IPv6-only
	// (mostly mobile operators). Their hosts never answer IPv4 sweeps,
	// so the IPv4-corpus methodology cannot see them — the §7
	// limitation, made measurable.
	IPv6OnlyASFrac float64
	// Trajectories overrides individual hypergiants' published off-net
	// trajectories (flash expansion, retreat, uniform growth scaling)
	// for adversarial scenario studies. Nil or empty leaves the
	// paper-anchored curves untouched.
	Trajectories map[hg.ID]TrajectoryOverride
	// SharedCertFrac forces an extra fraction of background hosts to
	// present a valid CA-signed certificate shared between a hypergiant
	// and a partner (the §4.3 case the dNSName-subset rule must
	// reject). The default mix already contains ~0.4%; this models
	// aggressive customer-certificate reuse far beyond it.
	SharedCertFrac float64
	// CustomerCertBoost multiplies the customer (service-present)
	// footprint of certificate-issuing hypergiants (Cloudflare, §7):
	// more ASes whose origin servers carry a hypergiant-issued
	// certificate without any hypergiant hardware. Zero means 1.0.
	CustomerCertBoost float64
}

// TrajectoryOverride reshapes one hypergiant's off-net trajectory for
// scenario studies. The zero value changes nothing.
type TrajectoryOverride struct {
	// OffNetScale multiplies every point of the off-net hosting-AS
	// curve; zero means 1.0 (unchanged).
	OffNetScale float64
	// FlashPeakASes, when positive, splices a flash expansion into the
	// curve: a triangular bump of this many paper-scale hosting ASes
	// peaking at FlashAt and fully retreated FlashWidth snapshots to
	// either side.
	FlashPeakASes float64
	// FlashAt is the snapshot of the flash peak.
	FlashAt timeline.Snapshot
	// FlashWidth is the bump's half-width in snapshots; zero means 4.
	FlashWidth int
}

// flashAt evaluates the flash-expansion bump at snapshot s, in
// paper-scale hosting ASes.
func (o TrajectoryOverride) flashAt(s timeline.Snapshot) float64 {
	if o.FlashPeakASes <= 0 {
		return 0
	}
	width := o.FlashWidth
	if width <= 0 {
		width = 4
	}
	d := int(s) - int(o.FlashAt)
	if d < 0 {
		d = -d
	}
	if d >= width {
		return 0
	}
	return o.FlashPeakASes * (1 - float64(d)/float64(width))
}

// HideAndSeek is the set of §8 evasion strategies a hypergiant could
// deploy against certificate-scan mapping.
type HideAndSeek struct {
	// NullDefaultCertFrac is the fraction of off-net servers that
	// present no default certificate (answering only first-party SNI).
	NullDefaultCertFrac float64
	// StripOrganization removes the Subject Organization entry from
	// off-net end-entity certificates.
	StripOrganization bool
	// AnonymizeHeaders strips identifying debug headers from off-net
	// responses.
	AnonymizeHeaders bool
}

// DefaultScale keeps the default world around 7k ASes — large enough for
// every distributional result, small enough to regenerate in seconds.
const DefaultScale = 0.1

// WithDefaults returns c with zero-valued knobs replaced by their
// defaults. It is idempotent: applying it twice equals applying it once.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	if c.BackgroundHostsPerAS <= 0 {
		c.BackgroundHostsPerAS = 40
	}
	return c
}

// Validate rejects configurations no real scenario can mean: NaN or
// infinite knobs, negative or out-of-range fractions, and flash
// overrides pointing outside the study window. A zero field is always
// valid (it means "default").
func (c Config) Validate() error {
	if err := validRange("Scale", c.Scale, 0, 2); err != nil {
		return err
	}
	if err := validRange("BackgroundHostsPerAS", c.BackgroundHostsPerAS, 0, 10000); err != nil {
		return err
	}
	if err := validRange("Hide.NullDefaultCertFrac", c.Hide.NullDefaultCertFrac, 0, 1); err != nil {
		return err
	}
	if err := validRange("IPv6OnlyASFrac", c.IPv6OnlyASFrac, 0, 1); err != nil {
		return err
	}
	if err := validRange("SharedCertFrac", c.SharedCertFrac, 0, 1); err != nil {
		return err
	}
	if err := validRange("CustomerCertBoost", c.CustomerCertBoost, 0, 100); err != nil {
		return err
	}
	for id, o := range c.Trajectories {
		if id <= hg.None || int(id) > hg.Count {
			return fmt.Errorf("worldsim: Trajectories[%d]: unknown hypergiant", int(id))
		}
		name := fmt.Sprintf("Trajectories[%v]", id)
		if err := validRange(name+".OffNetScale", o.OffNetScale, 0, 100); err != nil {
			return err
		}
		if err := validRange(name+".FlashPeakASes", o.FlashPeakASes, 0, 1e6); err != nil {
			return err
		}
		if o.FlashPeakASes > 0 && !o.FlashAt.Valid() {
			return fmt.Errorf("worldsim: %s.FlashAt %d outside the study window", name, int(o.FlashAt))
		}
		if o.FlashWidth < 0 || o.FlashWidth > timeline.Count() {
			return fmt.Errorf("worldsim: %s.FlashWidth %d out of range [0, %d]", name, o.FlashWidth, timeline.Count())
		}
	}
	return nil
}

// validRange rejects NaN, infinities, and values outside [lo, hi].
func validRange(name string, v, lo, hi float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("worldsim: %s is %v", name, v)
	}
	if v < lo || v > hi {
		return fmt.Errorf("worldsim: %s %v out of range [%g, %g]", name, v, lo, hi)
	}
	return nil
}

// realFinalASes is the approximate number of ASes in the real Internet at
// the final snapshot; FinalASes = realFinalASes × Scale.
const realFinalASes = 71000

// anchor is a (snapshot, value) control point; values between anchors are
// linearly interpolated, values outside the range are clamped.
type anchor struct {
	s timeline.Snapshot
	v float64
}

// interpolate evaluates an anchor curve at snapshot s.
func interpolate(curve []anchor, s timeline.Snapshot) float64 {
	if len(curve) == 0 {
		return 0
	}
	if s <= curve[0].s {
		return curve[0].v
	}
	last := curve[len(curve)-1]
	if s >= last.s {
		return last.v
	}
	for i := 1; i < len(curve); i++ {
		if s <= curve[i].s {
			a, b := curve[i-1], curve[i]
			frac := float64(s-a.s) / float64(b.s-a.s)
			return a.v + frac*(b.v-a.v)
		}
	}
	return last.v
}

// strategy captures what one hypergiant does in the world. The numbers
// come from the paper's Table 3, Figures 3-6, and appendix A.3; all AS
// counts are for the real Internet and get multiplied by Config.Scale.
type strategy struct {
	// offNetASes is the headers-confirmed off-net footprint trajectory
	// (Table 3 / Fig 3).
	offNetASes []anchor
	// servicePresentASes is the additional certs-only footprint: ASes
	// where the hypergiant's certificate is present without its own
	// serving hardware (third-party CDNs, management interfaces,
	// cloud front-ends). Table 3's parenthesised values minus the
	// confirmed ones.
	servicePresentASes []anchor
	// onNetIPs is the number of on-net serving IPs with certificates.
	onNetIPs []anchor
	// offNetIPsPerAS is how many off-net server IPs a hosting AS runs
	// (Akamai installs racks; Google a handful of GGC nodes).
	offNetIPsPerAS int
	// regionWeight biases hosting-AS selection per continent; the
	// South-America entry additionally ramps over time (§6.4).
	regionWeight [astopo.NumContinents]float64
	// southAmericaRamp multiplies the South-America weight by up to
	// this factor at the final snapshot, producing the exponential
	// regional growth of Fig 6c.
	southAmericaRamp float64
	// categoryWeight biases hosting-AS selection per AS size category,
	// relative to the category's base population (§6.3).
	categoryWeight [astopo.NumCategories]float64
	// retireStubsFirst makes footprint shrinkage remove Stub/Small ASes
	// preferentially, and in North America first — Akamai's observed
	// consolidation (§6.3, A.7).
	retireStubsFirst bool
	// certGroups is how many distinct certificate groups the
	// hypergiant serves off-net; certGroupSkew is the Zipf exponent of
	// the group-size distribution (Fig 11: Google one dominant group,
	// Facebook drifting from aggregated to disaggregated).
	certGroups       int
	certGroupSkew    []anchor
	certLifetimeDays []anchor
	// headersOnOffNet: whether off-net servers expose the fingerprint
	// headers of Table 4 to unauthenticated scans. Netflix and Hulu
	// only send debug headers to logged-in users (§7 Missing Headers).
	headersOnOffNet bool
	// defaultNginxHeader: Netflix off-nets answer anonymous requests
	// with a default nginx Server header (§4.4).
	defaultNginxHeader bool
	// nullCertOnNetFrac is the fraction of on-net IPs that present no
	// default certificate without SNI (Google's first-party-only
	// behaviour, §8 hide-and-seek).
	nullCertOnNetFrac float64
	// anomalies
	netflixExpiredEra bool // expired default certs + HTTP fallback 2017-04..2019-07
	cloudflareIssuer  bool // issues customer certificates (§7)
	usesThirdPartyCDN []hg.ID
	onPremManagement  bool // AWS-Outposts-style management certificates
}

// Paper-anchored strategies. Snapshot indices: 0=2013-10, 10=2016-04,
// 14=2017-04, 18=2018-04, 22=2019-04, 26=2020-04, 30=2021-04.
var strategies = buildStrategies()

func baseStrategies() map[hg.ID]*strategy {
	return map[hg.ID]*strategy{
		hg.Google: {
			offNetASes:         []anchor{{0, 1044}, {6, 1500}, {10, 2000}, {14, 2450}, {18, 2850}, {22, 3200}, {26, 3450}, {30, 3810}},
			servicePresentASes: []anchor{{0, 61}, {30, 25}},
			onNetIPs:           []anchor{{0, 6000}, {30, 18000}},
			offNetIPsPerAS:     4,
			regionWeight:       regionW(1.5, 1.4, 1.6, 0.8, 0.7, 0.3),
			southAmericaRamp:   3.0,
			categoryWeight:     topCatW(),
			certGroups:         10,
			certGroupSkew:      []anchor{{0, 1.6}, {30, 1.6}}, // one dominant *.googlevideo.com group
			certLifetimeDays:   []anchor{{0, 90}, {30, 90}},
			headersOnOffNet:    true,
			nullCertOnNetFrac:  0.3,
		},
		hg.Netflix: {
			offNetASes:         []anchor{{0, 47}, {4, 120}, {6, 250}, {10, 520}, {14, 769}, {18, 1150}, {22, 1500}, {26, 1800}, {30, 2115}},
			servicePresentASes: []anchor{{0, 96}, {30, 173}},
			onNetIPs:           []anchor{{0, 150}, {30, 400}},
			offNetIPsPerAS:     5,
			regionWeight:       regionW(1.0, 1.3, 1.7, 1.0, 0.4, 0.5),
			southAmericaRamp:   2.8,
			categoryWeight:     topCatW(),
			certGroups:         6,
			certGroupSkew:      []anchor{{0, 1.2}, {30, 1.2}},
			certLifetimeDays:   []anchor{{0, 500}, {20, 700}, {23, 35}, {30, 35}}, // 2019 shift to short-lived
			headersOnOffNet:    false,                                             // debug headers only for logged-in users
			defaultNginxHeader: true,
			netflixExpiredEra:  true,
		},
		hg.Facebook: {
			offNetASes:         []anchor{{0, 0}, {9, 0}, {10, 40}, {12, 300}, {14, 620}, {16, 900}, {18, 1201}, {22, 1704}, {26, 1950}, {30, 2214}},
			servicePresentASes: []anchor{{0, 8}, {30, 15}},
			onNetIPs:           []anchor{{0, 900}, {30, 4000}},
			offNetIPsPerAS:     6,
			regionWeight:       regionW(1.3, 1.1, 1.6, 0.7, 1.0, 0.2),
			southAmericaRamp:   2.6,
			categoryWeight:     topCatW(),
			certGroups:         8,
			certGroupSkew:      []anchor{{0, 2.2}, {30, 0.4}}, // aggregated 2014 → disaggregated 2021 (Fig 11b)
			certLifetimeDays:   []anchor{{0, 365}, {30, 180}},
			headersOnOffNet:    true,
		},
		hg.Akamai: {
			offNetASes:         []anchor{{0, 978}, {8, 1200}, {14, 1380}, {18, 1463}, {22, 1300}, {26, 1180}, {30, 1094}},
			servicePresentASes: []anchor{{0, 35}, {30, 13}},
			onNetIPs:           []anchor{{0, 2000}, {30, 3500}},
			offNetIPsPerAS:     8, // many more IPs per AS than anyone else (§5)
			regionWeight:       regionW(1.6, 1.2, 0.5, 1.2, 0.5, 0.4),
			southAmericaRamp:   1.3,
			categoryWeight:     akamaiCatW(),
			retireStubsFirst:   true,
			certGroups:         12,
			certGroupSkew:      []anchor{{0, 0.8}, {30, 0.8}},
			certLifetimeDays:   []anchor{{0, 365}, {30, 365}},
			headersOnOffNet:    true,
		},
		hg.Alibaba: {
			offNetASes:         []anchor{{0, 0}, {4, 0}, {5, 10}, {10, 80}, {17, 184}, {22, 160}, {30, 136}},
			servicePresentASes: []anchor{{0, 0}, {17, 60}, {30, 165}},
			onNetIPs:           []anchor{{0, 200}, {30, 1200}},
			offNetIPsPerAS:     3,
			regionWeight:       regionW(6.0, 0.4, 0.2, 0.3, 0.2, 0.2), // Asia-centric
			southAmericaRamp:   1.0,
			categoryWeight:     topCatW(),
			certGroups:         5,
			certGroupSkew:      []anchor{{0, 1.0}, {30, 1.0}},
			certLifetimeDays:   []anchor{{0, 365}, {30, 365}},
			headersOnOffNet:    true,
			usesThirdPartyCDN:  []hg.ID{hg.Akamai}, // relies on other HGs outside Asia
		},
		hg.Cloudflare: {
			offNetASes:         []anchor{{0, 0}, {30, 0}}, // no genuine off-nets (§6.1)
			servicePresentASes: []anchor{{0, 2}, {14, 40}, {24, 110}, {30, 110}},
			onNetIPs:           []anchor{{0, 300}, {30, 1500}},
			offNetIPsPerAS:     1,
			regionWeight:       regionW(1, 1, 1, 1, 1, 1),
			categoryWeight:     topCatW(),
			certGroups:         4,
			certGroupSkew:      []anchor{{0, 1.0}, {30, 1.0}},
			certLifetimeDays:   []anchor{{0, 365}, {30, 365}},
			headersOnOffNet:    true,
			cloudflareIssuer:   true,
		},
		hg.Amazon: {
			offNetASes:         []anchor{{0, 0}, {8, 40}, {15, 112}, {22, 80}, {30, 62}},
			servicePresentASes: []anchor{{0, 147}, {30, 156}},
			onNetIPs:           []anchor{{0, 5000}, {30, 15000}},
			offNetIPsPerAS:     2,
			regionWeight:       regionW(1, 1.2, 0.6, 1.4, 0.3, 0.4),
			categoryWeight:     topCatW(),
			certGroups:         8,
			certGroupSkew:      []anchor{{0, 0.9}, {30, 0.9}},
			certLifetimeDays:   []anchor{{0, 395}, {30, 395}},
			headersOnOffNet:    true,
			onPremManagement:   true,
		},
		hg.CDNetworks: {
			offNetASes:         []anchor{{0, 0}, {12, 10}, {21, 51}, {26, 25}, {30, 11}},
			servicePresentASes: []anchor{{0, 4}, {30, 20}},
			onNetIPs:           []anchor{{0, 80}, {30, 150}},
			offNetIPsPerAS:     2,
			regionWeight:       regionW(2.5, 1.0, 0.4, 0.8, 0.3, 0.3),
			categoryWeight:     topCatW(),
			certGroups:         3,
			certGroupSkew:      []anchor{{0, 1.0}, {30, 1.0}},
			certLifetimeDays:   []anchor{{0, 365}, {30, 365}},
			headersOnOffNet:    true,
		},
		hg.Limelight: {
			offNetASes:         []anchor{{0, 0}, {10, 8}, {20, 30}, {26, 42}, {30, 32}},
			servicePresentASes: []anchor{{0, 1}, {30, 0}},
			onNetIPs:           []anchor{{0, 250}, {30, 400}},
			offNetIPsPerAS:     3,
			regionWeight:       regionW(1.0, 1.2, 0.5, 1.4, 0.3, 0.5),
			categoryWeight:     topCatW(),
			certGroups:         3,
			certGroupSkew:      []anchor{{0, 1.0}, {30, 1.0}},
			certLifetimeDays:   []anchor{{0, 365}, {30, 365}},
			headersOnOffNet:    true,
		},
		hg.Apple: {
			offNetASes:         []anchor{{0, 0}, {24, 0}, {26, 6}, {30, 0}},
			servicePresentASes: []anchor{{0, 113}, {30, 267}},
			onNetIPs:           []anchor{{0, 500}, {30, 2000}},
			offNetIPsPerAS:     2,
			regionWeight:       regionW(1, 1, 1, 1.5, 0.3, 0.5),
			categoryWeight:     topCatW(),
			certGroups:         4,
			certGroupSkew:      []anchor{{0, 1.0}, {30, 1.0}},
			certLifetimeDays:   []anchor{{0, 365}, {30, 365}},
			headersOnOffNet:    true,
			usesThirdPartyCDN:  []hg.ID{hg.Akamai, hg.Limelight},
		},
		hg.Twitter: {
			offNetASes:         []anchor{{0, 0}, {27, 0}, {28, 4}, {30, 4}},
			servicePresentASes: []anchor{{0, 101}, {30, 176}},
			onNetIPs:           []anchor{{0, 300}, {30, 800}},
			offNetIPsPerAS:     2,
			regionWeight:       regionW(1, 1, 1, 1.5, 0.3, 0.5),
			categoryWeight:     topCatW(),
			certGroups:         3,
			certGroupSkew:      []anchor{{0, 1.0}, {30, 1.0}},
			certLifetimeDays:   []anchor{{0, 365}, {30, 365}},
			headersOnOffNet:    true,
			usesThirdPartyCDN:  []hg.ID{hg.Akamai, hg.Verizon},
		},
	}
}

// onNetOnly is the strategy shared by the hypergiants with no inferred
// off-net footprint (§6.1 lists Microsoft, Hulu, Disney, Yahoo,
// Chinacache, Fastly, Cachefly, Incapsula, CDN77, Bamtech, Highwinds).
func onNetOnly(ips float64) *strategy {
	return &strategy{
		offNetASes:       []anchor{{0, 0}, {30, 0}},
		onNetIPs:         []anchor{{0, ips}, {30, ips * 2.5}},
		offNetIPsPerAS:   1,
		regionWeight:     regionW(1, 1, 1, 1, 1, 1),
		categoryWeight:   topCatW(),
		certGroups:       3,
		certGroupSkew:    []anchor{{0, 1.0}, {30, 1.0}},
		certLifetimeDays: []anchor{{0, 500}, {16, 600}, {30, 700}},
		headersOnOffNet:  true,
	}
}

func buildStrategies() map[hg.ID]*strategy {
	m := baseStrategies()
	for _, id := range []hg.ID{hg.Microsoft, hg.Disney, hg.Yahoo, hg.Chinacache, hg.Fastly, hg.Cachefly, hg.Incapsula, hg.CDN77, hg.Bamtech, hg.Highwinds} {
		m[id] = onNetOnly(400)
	}
	hulu := onNetOnly(150)
	hulu.headersOnOffNet = false // logged-in-only headers, like Netflix
	m[hg.Hulu] = hulu
	// Verizon's CDN appears via third-party hosting relationships only.
	m[hg.Verizon] = onNetOnly(500)
	return m
}

func regionW(asia, europe, southAm, northAm, africa, oceania float64) [astopo.NumContinents]float64 {
	return [astopo.NumContinents]float64{
		astopo.Asia:         asia,
		astopo.Europe:       europe,
		astopo.SouthAmerica: southAm,
		astopo.NorthAmerica: northAm,
		astopo.Africa:       africa,
		astopo.Oceania:      oceania,
	}
}

// topCatW reproduces the §6.3 demographics of Google/Netflix/Facebook
// hosts relative to the base AS population: Stubs under-represented
// (~29 % of hosts vs ~85 % of ASes), Small/Medium/Large heavily
// over-represented.
func topCatW() [astopo.NumCategories]float64 {
	return [astopo.NumCategories]float64{
		astopo.Stub:   0.34,
		astopo.Small:  3.5,
		astopo.Medium: 8.8,
		astopo.Large:  9.0,
		astopo.XLarge: 19.0,
	}
}

// akamaiCatW skews further towards Medium/Large ASes (13 % stubs, >16 %
// Large/XLarge among Akamai hosts).
func akamaiCatW() [astopo.NumCategories]float64 {
	return [astopo.NumCategories]float64{
		astopo.Stub:   0.15,
		astopo.Small:  2.9,
		astopo.Medium: 9.0,
		astopo.Large:  28.0,
		astopo.XLarge: 30.0,
	}
}
