// Package dnssim is the DNS control plane of the simulated world: the
// authoritative behaviour hypergiants use to steer clients to nearby
// servers. It exists to make the *earlier* mapping approaches the paper
// compares against (§1, §5) implementable as real algorithms:
//
//   - EDNS-Client-Subnet (ECS) queries, which let a measurer appear to
//     resolve from arbitrary prefixes (Calder et al.'s Google mapping) —
//     including the whitelisting and the post-2016 lockdown that broke
//     that technique;
//   - Facebook's FNA naming convention (<airport><n>-c<k>.fna.fbcdn.net),
//     which the community exploited by exhaustively guessing hostnames.
//
// The resolver consults world ground truth the way a hypergiant's own
// authoritative DNS does; measurement code (package baselines) only ever
// sees query/answer pairs.
package dnssim

import (
	"fmt"
	"sort"
	"strings"

	"offnetscope/internal/astopo"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// ECSCutoff is when Google stopped answering ECS queries for its
// user-facing domains with off-net addresses (§1: "even Google ... now
// only responds ... with IP addresses of on-net servers").
const ECSCutoff = timeline.Snapshot(10) // 2016-04

// Resolver is the hypergiants' authoritative DNS for the world.
type Resolver struct {
	w *worldsim.World
	// fnaByName maps an FNA site name (code + index) → Facebook hosting AS.
	fnaByName map[string]astopo.ASN
}

// New builds the resolver, assigning every Facebook hosting AS (over the
// whole study) an FNA site name derived from its country — the naming
// convention the guessing attack exploits.
func New(w *worldsim.World) *Resolver {
	r := &Resolver{
		w:         w,
		fnaByName: make(map[string]astopo.ASN),
	}
	// All-time Facebook hosting ASes in deterministic order.
	seen := make(map[astopo.ASN]struct{})
	var all []astopo.ASN
	for _, s := range timeline.All() {
		for _, as := range w.TrueOffNetASes(hg.Facebook, s) {
			if _, ok := seen[as]; !ok {
				seen[as] = struct{}{}
				all = append(all, as)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	counter := make(map[string]int)
	for _, as := range all {
		code := siteCode(w.Graph().Country(as), uint64(as))
		counter[code]++
		name := fmt.Sprintf("%s%d", code, counter[code])
		r.fnaByName[name] = as
	}
	return r
}

// siteCode derives a 3-letter airport-style site code from the country:
// one of AirportCodesFor(country). Which one a given AS gets is
// deterministic but not public; the guessing attack enumerates all of
// them.
func siteCode(country string, h uint64) string {
	codes := AirportCodesFor(country)
	return codes[h%uint64(len(codes))]
}

// AirportCodesFor lists the site codes used in a country — the "global
// airport codes" list the naming attack iterates over. Public knowledge.
func AirportCodesFor(country string) []string {
	cc := strings.ToLower(country)
	if len(cc) != 2 {
		cc = "zz"
	}
	return []string{cc + "a", cc + "b", cc + "c"}
}

// Answer is one DNS response.
type Answer struct {
	IPs []netmodel.IP
	// NXDomain marks a name that does not exist.
	NXDomain bool
}

// ownerOf maps a query name to the hypergiant serving it.
func ownerOf(qname string) (hg.ID, bool) {
	for _, h := range hg.All() {
		for _, pat := range h.Domains {
			if hg.MatchDomain(pat, qname) {
				return h.ID, true
			}
		}
	}
	return hg.None, false
}

// Resolve answers qname for a client inside clientAS at snapshot s,
// steering to the off-net inside the client's network when one exists,
// then to an off-net at a provider, then to on-net.
func (r *Resolver) Resolve(qname string, clientAS astopo.ASN, s timeline.Snapshot) Answer {
	qname = strings.ToLower(qname)
	if strings.HasSuffix(qname, ".fna.fbcdn.net") {
		return r.resolveFNA(qname, s)
	}
	id, ok := ownerOf(qname)
	if !ok {
		return Answer{NXDomain: true}
	}
	return Answer{IPs: r.steer(id, clientAS, s)}
}

// ResolveECS answers an EDNS-Client-Subnet query: the client pretends to
// sit inside ecs. Hypergiants that do not support ECS (most, §1) answer
// as if the query came from the resolver itself (on-net); Google
// supported it until ECSCutoff.
func (r *Resolver) ResolveECS(qname string, ecs netmodel.Prefix, s timeline.Snapshot) Answer {
	qname = strings.ToLower(qname)
	id, ok := ownerOf(qname)
	if !ok {
		return Answer{NXDomain: true}
	}
	supportsECS := id == hg.Google && s < ECSCutoff
	if !supportsECS {
		return Answer{IPs: r.onNetIPs(id, s)}
	}
	clientAS, ok := r.w.Alloc().TrueOwner(ecs.Addr)
	if !ok {
		return Answer{IPs: r.onNetIPs(id, s)}
	}
	return Answer{IPs: r.steer(id, clientAS, s)}
}

// resolveFNA answers a Facebook FNA hostname such as "gba2-c1.fna.fbcdn.net".
// A fraction of sites only expose higher cluster numbers (-c2, -c3), one
// of the reasons the guessing attack never reached 100%.
func (r *Resolver) resolveFNA(qname string, s timeline.Snapshot) Answer {
	rest, ok := strings.CutSuffix(qname, ".fna.fbcdn.net")
	if !ok {
		return Answer{NXDomain: true}
	}
	site, cluster, ok := strings.Cut(rest, "-c")
	if !ok {
		return Answer{NXDomain: true}
	}
	as, ok := r.fnaByName[site]
	if !ok {
		return Answer{NXDomain: true}
	}
	// ~8% of sites answer only on cluster 2.
	onlyC2 := uint64(as)*0xbf58476d1ce4e5b9>>56%100 < 8
	if onlyC2 && cluster == "1" || !onlyC2 && cluster != "1" && cluster != "2" {
		return Answer{NXDomain: true}
	}
	ips := r.offNetIPsIn(hg.Facebook, as, s)
	if len(ips) == 0 {
		return Answer{NXDomain: true} // site not (yet/anymore) deployed
	}
	return Answer{IPs: ips}
}

// steer picks the closest serving IPs for a client: in-network off-net →
// provider's off-net → on-net.
func (r *Resolver) steer(id hg.ID, clientAS astopo.ASN, s timeline.Snapshot) []netmodel.IP {
	if ips := r.offNetIPsIn(id, clientAS, s); len(ips) > 0 {
		return ips
	}
	providers := append([]astopo.ASN(nil), r.w.Graph().Providers(clientAS)...)
	sort.Slice(providers, func(i, j int) bool { return providers[i] < providers[j] })
	for _, p := range providers {
		if ips := r.offNetIPsIn(id, p, s); len(ips) > 0 {
			return ips
		}
	}
	return r.onNetIPs(id, s)
}

// offNetIPsIn returns the hypergiant's off-net IPs inside as, if deployed.
func (r *Resolver) offNetIPsIn(id hg.ID, as astopo.ASN, s timeline.Snapshot) []netmodel.IP {
	deployed := false
	for _, a := range r.w.TrueOffNetASes(id, s) {
		if a == as {
			deployed = true
			break
		}
	}
	if !deployed {
		return nil
	}
	prefixes := r.w.Alloc().PrefixesOf(as)
	if len(prefixes) == 0 {
		return nil
	}
	base := prefixes[0].Addr
	// Two user-facing cache IPs per site (the layout's off-net slots).
	slot := netmodel.IP(10 + (int(id)-1)*8)
	return []netmodel.IP{base + slot, base + slot + 1}
}

// onNetIPs returns a couple of the hypergiant's on-net front-end IPs.
func (r *Resolver) onNetIPs(id hg.ID, s timeline.Snapshot) []netmodel.IP {
	ases := r.w.OnNetASes(id)
	if len(ases) == 0 {
		return nil
	}
	prefixes := r.w.Alloc().PrefixesOf(ases[0])
	if len(prefixes) == 0 {
		return nil
	}
	return []netmodel.IP{prefixes[0].Addr + 256, prefixes[0].Addr + 257}
}
