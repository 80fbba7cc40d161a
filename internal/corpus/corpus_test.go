package corpus

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/rng"
)

func sampleSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	from := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	auth := certmodel.NewAuthority("TestCA", 2, from, to, rng.New(1))
	snap := &Snapshot{Vendor: Rapid7, Snapshot: 20}
	for i := 0; i < 50; i++ {
		ch := auth.IssueLeaf(certmodel.LeafSpec{
			Organization: "Google LLC",
			CommonName:   "*.google.com",
			DNSNames:     []string{"*.google.com", "*.googlevideo.com"},
			NotBefore:    from,
			NotAfter:     to,
		})
		snap.Certs = append(snap.Certs, CertRecord{IP: netmodel.IP(0x01000000 + uint32(i)), Chain: ch})
	}
	// One self-signed record too.
	snap.Certs = append(snap.Certs, CertRecord{
		IP: netmodel.MustParseIP("9.9.9.9"),
		Chain: auth.IssueSelfSigned(certmodel.LeafSpec{
			Organization: "Evil Corp", CommonName: "x", DNSNames: []string{"x.example"},
			NotBefore: from, NotAfter: to,
		}),
	})
	snap.HTTPS = []HeaderRecord{
		{IP: netmodel.MustParseIP("1.0.0.1"), Headers: []hg.Header{{Name: "Server", Value: "gws"}}},
	}
	snap.HTTP = []HeaderRecord{
		{IP: netmodel.MustParseIP("1.0.0.2"), Headers: []hg.Header{{Name: "Server", Value: "nginx"}}},
	}
	return snap
}

func TestWriteReadRoundTrip(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	back, err := Read(root, Rapid7, snap.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Certs) != len(snap.Certs) {
		t.Fatalf("cert records: %d vs %d", len(back.Certs), len(snap.Certs))
	}
	for i := range snap.Certs {
		a, b := snap.Certs[i], back.Certs[i]
		if a.IP != b.IP {
			t.Fatalf("record %d IP: %v vs %v", i, a.IP, b.IP)
		}
		if len(a.Chain) != len(b.Chain) {
			t.Fatalf("record %d chain length differs", i)
		}
		for j := range a.Chain {
			if a.Chain[j].Fingerprint() != b.Chain[j].Fingerprint() {
				t.Fatalf("record %d cert %d fingerprint differs", i, j)
			}
		}
	}
	if len(back.HTTPS) != 1 || back.HTTPS[0].Headers[0].Value != "gws" {
		t.Fatalf("HTTPS records corrupted: %+v", back.HTTPS)
	}
	if len(back.HTTP) != 1 || back.HTTP[0].Headers[0].Value != "nginx" {
		t.Fatalf("HTTP records corrupted: %+v", back.HTTP)
	}
}

func TestReadInternsIntermediates(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	back, err := Read(root, Rapid7, snap.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	// Two records signed by the same intermediate must share the pointer
	// after interning.
	var first *certmodel.Certificate
	shared := false
	for _, r := range back.Certs {
		if len(r.Chain) < 3 {
			continue
		}
		if first == nil {
			first = r.Chain[2] // root
			continue
		}
		if r.Chain[2] == first {
			shared = true
			break
		}
	}
	if !shared {
		t.Error("root certificates not interned on read")
	}
}

func TestReadMissingDir(t *testing.T) {
	if _, err := Read(t.TempDir(), Rapid7, 5); err == nil {
		t.Fatal("reading a missing snapshot should fail")
	}
}

func TestDirLayout(t *testing.T) {
	got := Dir("/data", Censys, 3)
	want := filepath.Join("/data", "censys", "2014-07")
	if got != want {
		t.Fatalf("Dir = %q, want %q", got, want)
	}
}

func TestScanTime(t *testing.T) {
	snap := &Snapshot{Snapshot: 0}
	ts := snap.ScanTime()
	if ts.Year() != 2013 || ts.Month() != time.October {
		t.Fatalf("ScanTime = %v", ts)
	}
}

func TestWriteToUnwritableDir(t *testing.T) {
	snap := sampleSnapshot(t)
	if err := Write("/proc/definitely/not/writable", snap); err == nil {
		t.Fatal("writing to an unwritable path should fail")
	}
}

func osMkdirAll(dir string) error                { return os.MkdirAll(dir, 0o755) }
func osWriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func filepathJoin(parts ...string) string        { return filepath.Join(parts...) }

// TestReadTruncatedGzip guards the close-error propagation in
// readNDJSON: a gzip stream cut mid-file (as after a partial download)
// must fail Read loudly, never return a silently short snapshot.
func TestReadTruncatedGzip(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	path := filepathJoin(Dir(root, Rapid7, snap.Snapshot), "certs.ndjson.gz")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-stream and, separately, cut just the 8-byte CRC/size
	// trailer (the flate payload stays intact — only the checksum
	// machinery can notice).
	for _, keep := range []int{len(data) / 2, len(data) - 8} {
		if err := osWriteFile(path, data[:keep]); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(root, Rapid7, snap.Snapshot); err == nil {
			t.Errorf("truncated to %d/%d bytes: Read succeeded, want error", keep, len(data))
		}
	}
}

func TestReadCorruptGzip(t *testing.T) {
	root := t.TempDir()
	dir := Dir(root, Rapid7, 20)
	if err := osMkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"certs.ndjson.gz", "https_headers.ndjson.gz", "http_headers.ndjson.gz"} {
		if err := osWriteFile(filepathJoin(dir, name), []byte("not gzip at all")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Read(root, Rapid7, 20); err == nil {
		t.Fatal("corrupt gzip should fail to parse")
	}
}
