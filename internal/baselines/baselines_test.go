package baselines

import (
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/dnssim"
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
	testResolver = dnssim.New(testWorld)
)

func truthSet(id hg.ID, s timeline.Snapshot) map[astopo.ASN]struct{} {
	out := make(map[astopo.ASN]struct{})
	for _, as := range testWorld.TrueOffNetASes(id, s) {
		out[as] = struct{}{}
	}
	return out
}

// overlapCount is |found ∩ truth|.
func overlapCount(found, truth map[astopo.ASN]struct{}) int {
	n := 0
	for as := range found {
		if _, ok := truth[as]; ok {
			n++
		}
	}
	return n
}

func TestECSMapBeforeCutoff(t *testing.T) {
	s := timeline.Snapshot(8) // 2015-10, ECS still answered
	found := ECSMap(testResolver, testWorld, testWorld.IP2AS(s), hg.Google, s)
	truth := truthSet(hg.Google, s)
	if len(found) == 0 {
		t.Fatal("ECS mapping found nothing pre-cutoff")
	}
	overlap := overlapCount(found, truth)
	recall := float64(overlap) / float64(len(truth))
	if recall < 0.8 {
		t.Errorf("ECS recall pre-cutoff = %.2f (found %d of %d)", recall, overlap, len(truth))
	}
	precision := float64(overlap) / float64(len(found))
	if precision < 0.8 {
		t.Errorf("ECS precision = %.2f", precision)
	}
}

func TestECSMapDiesAfterCutoff(t *testing.T) {
	s := timeline.Snapshot(timeline.Count() - 1)
	found := ECSMap(testResolver, testWorld, testWorld.IP2AS(s), hg.Google, s)
	// Post-lockdown, ECS answers only ever point on-net — the technique
	// uncovers (almost) nothing, which is exactly why the paper needed a
	// new method.
	if len(found) > len(truthSet(hg.Google, s))/10 {
		t.Errorf("ECS still found %d ASes after the lockdown", len(found))
	}
}

func TestECSUselessForNonECSHypergiants(t *testing.T) {
	s := timeline.Snapshot(8)
	found := ECSMap(testResolver, testWorld, testWorld.IP2AS(s), hg.Netflix, s)
	if len(found) != 0 {
		t.Errorf("ECS mapped %d Netflix ASes; Netflix never supported ECS", len(found))
	}
}

func TestFNAMapRecoversFacebook(t *testing.T) {
	s := timeline.Snapshot(timeline.Count() - 1)
	found := FNAMap(testResolver, testWorld, testWorld.IP2AS(s), s, 60, 6)
	truth := truthSet(hg.Facebook, s)
	if len(truth) == 0 {
		t.Fatal("no Facebook truth")
	}
	overlap := overlapCount(found, truth)
	recall := float64(overlap) / float64(len(truth))
	// The guessing attack works well but not perfectly (index gaps past
	// the miss streak, BGP noise).
	if recall < 0.7 {
		t.Errorf("FNA recall = %.2f (found %d of %d)", recall, overlap, len(truth))
	}
	// Before the CDN launch the namespace is empty.
	if early := FNAMap(testResolver, testWorld, testWorld.IP2AS(5), 5, 20, 3); len(early) != 0 {
		t.Errorf("FNA map found %d ASes before the CDN existed", len(early))
	}
}
