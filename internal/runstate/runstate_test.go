package runstate

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/core"
	"offnetscope/internal/durable"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

func sampleCheckpoint() *core.CheckpointData {
	mkSet := func(asns ...astopo.ASN) map[astopo.ASN]struct{} {
		m := make(map[astopo.ASN]struct{})
		for _, as := range asns {
			m[as] = struct{}{}
		}
		return m
	}
	res := &core.Result{
		Vendor:          "rapid7",
		Snapshot:        timeline.Snapshot(5),
		TotalCertIPs:    1234,
		TotalCertASes:   77,
		ValidCertIPs:    1100,
		InvalidByReason: map[string]int{"expired": 30, "self-signed": 104},
		HGOnNetCertIPs:  400,
		HGOffNetCertIPs: 90,
		PerHG:           map[hg.ID]*core.HGResult{},
	}
	for _, id := range []hg.ID{hg.Google, hg.Netflix} {
		res.PerHG[id] = &core.HGResult{
			HG:                    id,
			OnNetASes:             []astopo.ASN{15169, 36040},
			DNSNames:              map[string]struct{}{"*.example.com": {}, "cdn.example.net": {}},
			CandidateASes:         mkSet(7, 3, 99),
			ConfirmedASes:         mkSet(3, 99),
			ConfirmedByEitherASes: mkSet(3, 99, 12),
			ConfirmedByBothASes:   mkSet(3),
			ExpiredASes:           mkSet(55),
			CandidateIPs:          42,
			ConfirmedIPs:          31,
			ConfirmedIPList:       []netmodel.IP{0x01020304, 0x01020305},
			CandidateIPList:       []netmodel.IP{0x01020304, 0x01020305, 0x0a000001},
			ExpiredIPs:            []netmodel.IP{0x0a000002},
			OnNetIPs:              900,
			CertIPGroups:          map[certmodel.Fingerprint]int{0xdeadbeefcafef00d: 12, 0x1: 3},
		}
	}
	// An HG the run examined but that had no off-nets: PerHG holds an
	// entry for every hypergiant and restore must preserve that.
	res.PerHG[hg.Fastly] = &core.HGResult{
		HG:                    hg.Fastly,
		DNSNames:              map[string]struct{}{},
		CandidateASes:         mkSet(),
		ConfirmedASes:         mkSet(),
		ConfirmedByEitherASes: mkSet(),
		ConfirmedByBothASes:   mkSet(),
		ExpiredASes:           mkSet(),
		CertIPGroups:          map[certmodel.Fingerprint]int{},
	}
	return &core.CheckpointData{
		Result:   res,
		Envelope: core.EnvelopeValues{Initial: 2, WithExpired: 3, NonTLS: 4},
		MemDelta: []core.MemEntry{
			{IP: 0x01020304, ASNs: []astopo.ASN{3}},
			{IP: 0x0a000002, ASNs: []astopo.ASN{55, 56}},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir, err := Create(t.TempDir(), Manifest{Corpus: "c", Options: "o", Vendor: "rapid7"})
	if err != nil {
		t.Fatal(err)
	}
	s := timeline.Snapshot(5)
	want := sampleCheckpoint()
	if err := dir.Save(s, want); err != nil {
		t.Fatal(err)
	}
	got := dir.Load(s)
	if got == nil {
		t.Fatal("Load returned nil for a freshly saved entry")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
	if dir.Load(timeline.Snapshot(6)) != nil {
		t.Fatal("Load invented a checkpoint for a snapshot never saved")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	s := timeline.Snapshot(5)
	a, err := encodeEntry(s, sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeEntry(s, sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("encoding the same checkpoint twice produced different bytes")
	}
}

func TestLoadDiscardsCorruptEntry(t *testing.T) {
	s := timeline.Snapshot(5)
	base, err := Create(t.TempDir(), Manifest{Corpus: "c", Options: "o", Vendor: "rapid7"})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Save(s, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	path := base.entryPath(s)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte at a spread of offsets: every corruption must be
	// caught by the CRC (or the magic/version checks) and the entry
	// dropped, never half-trusted.
	for _, off := range []int{0, 7, 9, len(good) / 2, len(good) - 5, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x20
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if ck := base.Load(s); ck != nil {
			t.Fatalf("corrupt entry (byte %d flipped) was loaded", off)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("corrupt entry (byte %d flipped) not removed", off)
		}
	}

	// Truncation at every prefix length.
	for _, n := range []int{0, 4, len(good) / 3, len(good) - 1} {
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if ck := base.Load(s); ck != nil {
			t.Fatalf("entry truncated to %d bytes was loaded", n)
		}
	}
}

func TestCreateClearsStaleState(t *testing.T) {
	root := t.TempDir()
	first, err := Create(root, Manifest{Corpus: "old", Options: "o", Vendor: "rapid7"})
	if err != nil {
		t.Fatal(err)
	}
	s := timeline.Snapshot(3)
	if err := first.Save(s, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: leave temp litter behind.
	litter := filepath.Join(root, durable.TempPrefix+"snap-2014-07.ckpt-12345")
	if err := os.WriteFile(litter, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And an unrelated file that must survive.
	keep := filepath.Join(root, "NOTES.txt")
	if err := os.WriteFile(keep, []byte("ops notes"), 0o644); err != nil {
		t.Fatal(err)
	}

	second, err := Create(root, Manifest{Corpus: "new", Options: "o", Vendor: "rapid7"})
	if err != nil {
		t.Fatal(err)
	}
	if ck := second.Load(s); ck != nil {
		t.Fatal("Create kept a checkpoint from the previous run")
	}
	if _, err := os.Stat(litter); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Create kept temp-file litter")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatal("Create removed an unrelated file")
	}
}

func TestResumeValidatesManifest(t *testing.T) {
	root := t.TempDir()
	m := Manifest{Corpus: "c1", Options: "o1", Vendor: "rapid7"}
	first, err := Create(root, m)
	if err != nil {
		t.Fatal(err)
	}
	s := timeline.Snapshot(7)
	if err := first.Save(s, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}

	// Matching manifest: checkpoints survive.
	again, err := Resume(root, m)
	if err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	if again.Load(s) == nil {
		t.Fatal("matching resume lost the checkpoint")
	}

	// Any drifted field: clear rejection, nothing silently mixed.
	for name, bad := range map[string]Manifest{
		"corpus":  {Corpus: "c2", Options: "o1", Vendor: "rapid7"},
		"options": {Corpus: "c1", Options: "o2", Vendor: "rapid7"},
		"vendor":  {Corpus: "c1", Options: "o1", Vendor: "censys"},
	} {
		if _, err := Resume(root, bad); !errors.Is(err, ErrManifestMismatch) {
			t.Errorf("%s drift: got %v, want ErrManifestMismatch", name, err)
		}
	}

	// Resuming where nothing exists starts fresh.
	fresh, err := Resume(filepath.Join(root, "never-created"), m)
	if err != nil {
		t.Fatalf("resume of empty directory: %v", err)
	}
	if fresh.Load(s) != nil {
		t.Fatal("fresh directory has checkpoints")
	}

	// An unreadable manifest is an error, not a silent restart.
	garbled := filepath.Join(root, "garbled")
	if err := os.MkdirAll(garbled, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(garbled, manifestName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(garbled, m); err == nil {
		t.Fatal("garbled manifest accepted")
	}
}

func TestCorpusFingerprint(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("manifest.json", `{"seed":1}`)
	write("rapid7/2013-10.ndjson.gz", "aaaa")

	fp1, err := CorpusFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := CorpusFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("fingerprint not stable across calls")
	}

	write("rapid7/2013-10.ndjson.gz", "aaab") // same size, different bytes
	fp3, err := CorpusFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatal("content change not reflected in fingerprint")
	}

	write("rapid7/2014-01.ndjson.gz", "bbbb") // added file
	fp4, err := CorpusFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp4 == fp3 {
		t.Fatal("added file not reflected in fingerprint")
	}
}

func TestOptionsHash(t *testing.T) {
	base := core.DefaultOptions()
	h1 := OptionsHash(base)
	if h1 != OptionsHash(core.DefaultOptions()) {
		t.Fatal("hash not stable for equal options")
	}

	changed := base
	changed.DisableCloudflareFilter = true
	if OptionsHash(changed) == h1 {
		t.Fatal("option change not reflected in hash")
	}
}

// TestOptionsHashPinned pins the digests of the paper's configuration,
// the certs-only header mode and the ablation option sets. A checkpoint
// directory records the digest in its manifest, so changing one makes
// every existing checkpoint refuse to resume: such a change must be
// deliberate.
func TestOptionsHashPinned(t *testing.T) {
	e := core.HeadersEither
	for _, tc := range []struct {
		name string
		opts core.Options
		want string
	}{
		{"default", core.DefaultOptions(), "cc37dd1332cd9a85b3deb74c8f9254ed63b092d538f3c16f2cf0cd5500f0297d"},
		{"certs only", core.Options{HeaderMode: core.CertsOnly}, "8cad73458cb28adfbc9448c7b8a8372b6fe164538e81836ca7e803f0a0a7a645"},
		// The four option sets of analysis.Ablations.
		{"no chain validation", core.Options{HeaderMode: e, DisableChainValidation: true}, "a26f9962d1a158bdf1b8b6b894991e9a2c2d6b4812c44fd21e65f1622ecabf73"},
		{"no dNSName rule", core.Options{HeaderMode: e, DisableDNSNameFilter: true}, "42bcfa2ad131ebbc42194d354dd5382cf8601750ef3cc86f91c778a63e083e5b"},
		{"no Cloudflare filter", core.Options{HeaderMode: e, DisableCloudflareFilter: true}, "ea8bbfefc8c4a577fccfd15e6cc37282c21e8b2e000c2b56bda669de1fd14685"},
		{"no conflict priority", core.Options{HeaderMode: e, DisableConflictPriority: true}, "9c28fc5e6cfdc5ebaccadc00cf71efc285c60a3313267921aab4321c1e6144eb"},
	} {
		if got := OptionsHash(tc.opts); got != tc.want {
			t.Errorf("%s: OptionsHash = %s, want %s", tc.name, got, tc.want)
		}
	}
}
