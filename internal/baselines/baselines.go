// Package baselines implements the earlier off-net mapping techniques
// the paper compares against (§1, §5), as real algorithms over the DNS
// control plane:
//
//   - ECSMap: EDNS-Client-Subnet enumeration (Calder et al. 2013) — issue
//     one ECS query per routable prefix, collect the answers, map them
//     to ASes with public BGP data;
//   - FNAMap: Facebook naming-convention guessing (the FNA hackathon
//     maps) — exhaustively try <airport><n>-c1.fna.fbcdn.net hostnames.
//
// Both illustrate why the paper's certificate approach wins: ECS died
// when Google stopped answering it, and name-guessing is per-HG, fragile
// and quadratic in its guess space.
package baselines

import (
	"sort"

	"offnetscope/internal/astopo"
	"offnetscope/internal/dnssim"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// ASMapper maps answer IPs to origin ASes — the public BGP view both
// baselines rely on.
type ASMapper interface {
	Lookup(ip netmodel.IP) []astopo.ASN
}

// ECSClientCoverage is the fraction of client prefixes the ECS
// enumeration actually exercises: the original studies built their
// prefix lists from BGP dumps and open-resolver vantage points and never
// reached everything — the reason the paper's approach found hundreds of
// additional ASes beyond the ECS map.
const ECSClientCoverage = 0.85

// ECSMap reproduces the ECS-based mapping: for (most of) the active
// ASes, issue an ECS query (the AS's first announced prefix) for one of
// the hypergiant's delivery domains and attribute the answer IPs. ASes
// whose answers map outside the hypergiant's own networks are off-net
// sites.
func ECSMap(r *dnssim.Resolver, w *worldsim.World, mapper ASMapper, id hg.ID, s timeline.Snapshot) map[astopo.ASN]struct{} {
	h := hg.Get(id)
	domain := hg.ConcreteDomain(h.Domains[1%len(h.Domains)]) // the delivery domain
	onNet := make(map[astopo.ASN]struct{})
	for _, as := range w.OnNetASes(id) {
		onNet[as] = struct{}{}
	}
	found := make(map[astopo.ASN]struct{})
	for i := 1; i <= w.Graph().NumASes(); i++ {
		client := astopo.ASN(i)
		if !w.Graph().Active(client, s) {
			continue
		}
		if skipClient(uint64(client)) {
			continue
		}
		prefixes := w.Alloc().PrefixesOf(client)
		if len(prefixes) == 0 {
			continue
		}
		ans := r.ResolveECS(domain, prefixes[0], s)
		for _, ip := range ans.IPs {
			for _, origin := range mapper.Lookup(ip) {
				if _, isOnNet := onNet[origin]; !isOnNet {
					found[origin] = struct{}{}
				}
			}
		}
	}
	return found
}

// FNAMap reproduces the naming-convention attack: enumerate the public
// airport-code list for every country, with site indices up to maxIdx,
// resolve each guess, and attribute the answers. missStreak bounds how
// many consecutive unused indices are tried per code before giving up,
// like the original scripts did.
func FNAMap(r *dnssim.Resolver, w *worldsim.World, mapper ASMapper, s timeline.Snapshot, maxIdx, missStreak int) map[astopo.ASN]struct{} {
	if maxIdx <= 0 {
		maxIdx = 50
	}
	if missStreak <= 0 {
		missStreak = 4
	}
	found := make(map[astopo.ASN]struct{})
	countries := astopo.Countries()
	codes := make([]string, 0, len(countries)*3)
	for _, c := range countries {
		codes = append(codes, dnssim.AirportCodesFor(c.Code)...)
	}
	sort.Strings(codes)
	for _, code := range codes {
		misses := 0
		for n := 1; n <= maxIdx && misses < missStreak; n++ {
			qname := code + itoa(n) + "-c1.fna.fbcdn.net"
			ans := r.Resolve(qname, 0, s)
			if ans.NXDomain || len(ans.IPs) == 0 {
				misses++
				continue
			}
			misses = 0
			for _, ip := range ans.IPs {
				for _, origin := range mapper.Lookup(ip) {
					found[origin] = struct{}{}
				}
			}
		}
	}
	return found
}

// skipClient deterministically drops 1-ECSClientCoverage of client ASes.
func skipClient(as uint64) bool {
	h := as * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return float64(h%100000)/100000 >= ECSClientCoverage
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
