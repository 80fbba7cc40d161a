package dnssim

import (
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/hg"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

var (
	testWorld = func() *worldsim.World {
		w, err := worldsim.New(worldsim.Config{Seed: 42, Scale: 0.03})
		if err != nil {
			panic(err)
		}
		return w
	}()
	testResolver = New(testWorld)
)

func lastS() timeline.Snapshot { return timeline.Snapshot(timeline.Count() - 1) }

// fnaNames inverts the resolver's site-name table: Facebook hosting AS →
// its FNA site name.
func fnaNames(r *Resolver) map[astopo.ASN]string {
	names := make(map[astopo.ASN]string, len(r.fnaByName))
	for name, as := range r.fnaByName {
		names[as] = name
	}
	return names
}

func TestResolveSteersToLocalOffNet(t *testing.T) {
	s := lastS()
	hosting := testWorld.TrueOffNetASes(hg.Google, s)
	if len(hosting) == 0 {
		t.Fatal("no Google off-nets")
	}
	client := hosting[0]
	ans := testResolver.Resolve("www.googlevideo.com", client, s)
	if ans.NXDomain || len(ans.IPs) == 0 {
		t.Fatal("no answer for a hosted client")
	}
	owner, ok := testWorld.Alloc().TrueOwner(ans.IPs[0])
	if !ok || owner != client {
		t.Fatalf("steered to AS %d, want the client's own AS %d", owner, client)
	}
	// The answer IP really is a serving host with a Google certificate.
	h, ok := testWorld.HostAt(ans.IPs[0], s)
	if !ok || h.Chain == nil || !h.Chain.Leaf().MatchesOrganization("google") {
		t.Fatal("DNS answer does not point at a Google server")
	}
}

func TestResolveFallsBackToOnNet(t *testing.T) {
	s := lastS()
	// Find an eyeball AS hosting nothing and whose providers host
	// nothing either.
	hosting := make(map[uint32]bool)
	for _, as := range testWorld.TrueOffNetASes(hg.Google, s) {
		hosting[uint32(as)] = true
	}
	g := testWorld.Graph()
	var client uint32
	for i := 1; i <= g.NumASes(); i++ {
		if hosting[uint32(i)] || !g.Active(astopo.ASN(i), s) {
			continue
		}
		clean := true
		for _, p := range g.Providers(astopo.ASN(i)) {
			if hosting[uint32(p)] {
				clean = false
				break
			}
		}
		if clean {
			client = uint32(i)
			break
		}
	}
	if client == 0 {
		t.Skip("every AS is near an off-net in this world")
	}
	ans := testResolver.Resolve("www.google.com", astopo.ASN(client), s)
	if len(ans.IPs) == 0 {
		t.Fatal("no on-net fallback answer")
	}
	owner, _ := testWorld.Alloc().TrueOwner(ans.IPs[0])
	if id, ok := testWorld.HGOfOnNetAS(owner); !ok || id != hg.Google {
		t.Fatalf("fallback answer not on-net: AS %d", owner)
	}
}

func TestResolveUnknownName(t *testing.T) {
	ans := testResolver.Resolve("www.unknown-site.example", 1, lastS())
	if !ans.NXDomain {
		t.Fatal("unknown name should be NXDOMAIN")
	}
}

func TestECSWindow(t *testing.T) {
	s := timeline.Snapshot(5) // pre-cutoff
	hosting := testWorld.TrueOffNetASes(hg.Google, s)
	if len(hosting) == 0 {
		t.Fatal("no Google off-nets pre-cutoff")
	}
	prefix := testWorld.Alloc().PrefixesOf(hosting[0])[0]

	// Before the cutoff, ECS reveals the in-network cache.
	ans := testResolver.ResolveECS("www.googlevideo.com", prefix, s)
	owner, _ := testWorld.Alloc().TrueOwner(ans.IPs[0])
	if owner != hosting[0] {
		t.Fatalf("pre-cutoff ECS steered to AS %d, want %d", owner, hosting[0])
	}

	// From 2016-04 on, ECS only ever sees on-net (the lockdown that
	// broke the technique).
	late := lastS()
	lateHosting := testWorld.TrueOffNetASes(hg.Google, late)
	prefix = testWorld.Alloc().PrefixesOf(lateHosting[0])[0]
	ans = testResolver.ResolveECS("www.googlevideo.com", prefix, late)
	owner, _ = testWorld.Alloc().TrueOwner(ans.IPs[0])
	if id, ok := testWorld.HGOfOnNetAS(owner); !ok || id != hg.Google {
		t.Fatalf("post-cutoff ECS leaked an off-net in AS %d", owner)
	}

	// Netflix never supported ECS.
	nf := testWorld.TrueOffNetASes(hg.Netflix, s)
	if len(nf) > 0 {
		prefix = testWorld.Alloc().PrefixesOf(nf[0])[0]
		ans = testResolver.ResolveECS("www.nflxvideo.net", prefix, s)
		owner, _ = testWorld.Alloc().TrueOwner(ans.IPs[0])
		if id, ok := testWorld.HGOfOnNetAS(owner); !ok || id != hg.Netflix {
			t.Fatal("Netflix ECS should be ignored (on-net answer)")
		}
	}
}

func TestFNAResolution(t *testing.T) {
	s := lastS()
	hosting := testWorld.TrueOffNetASes(hg.Facebook, s)
	if len(hosting) == 0 {
		t.Fatal("no Facebook off-nets")
	}
	as := hosting[0]
	name, ok := fnaNames(testResolver)[as]
	if !ok {
		t.Fatalf("AS %d has no FNA name", as)
	}
	ans := testResolver.Resolve(name+"-c1.fna.fbcdn.net", 0, s)
	if ans.NXDomain || len(ans.IPs) == 0 {
		t.Fatalf("FNA name %q did not resolve", name)
	}
	owner, _ := testWorld.Alloc().TrueOwner(ans.IPs[0])
	if owner != as {
		t.Fatalf("FNA answer in AS %d, want %d", owner, as)
	}
	// A bogus site is NXDOMAIN; an existing site before Facebook's CDN
	// launch is NXDOMAIN too.
	if ans := testResolver.Resolve("zzz99-c1.fna.fbcdn.net", 0, s); !ans.NXDomain {
		t.Fatal("bogus FNA name resolved")
	}
	if ans := testResolver.Resolve(name+"-c1.fna.fbcdn.net", 0, 0); !ans.NXDomain {
		t.Fatal("FNA name resolved before the CDN existed")
	}
}

func TestFNANamesFollowCountryCodes(t *testing.T) {
	s := lastS()
	g := testWorld.Graph()
	names := fnaNames(testResolver)
	for _, as := range testWorld.TrueOffNetASes(hg.Facebook, s) {
		name, ok := names[as]
		if !ok {
			t.Fatalf("AS %d unnamed", as)
		}
		found := false
		for _, code := range AirportCodesFor(g.Country(as)) {
			if len(name) > len(code) && name[:len(code)] == code {
				found = true
			}
		}
		if !found {
			t.Fatalf("AS %d (country %s) has out-of-country name %q", as, g.Country(as), name)
		}
	}
}
