package certmodel

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"testing"
	"time"

	"offnetscope/internal/certgen"
)

// TestFromX509MatchesX509Verify is the bridge's differential test:
// Verify over FromX509 chains must reach the same valid/invalid verdict
// as crypto/x509 with the same roots at the same moment, and name the
// §4.1 reason the corpus path would.
func TestFromX509MatchesX509Verify(t *testing.T) {
	ecdsaCA, err := certgen.NewCA("Farm WebPKI")
	if err != nil {
		t.Fatal(err)
	}
	seededCA, err := certgen.NewCAFromSeed("Seeded WebPKI", [32]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	foreignCA, err := certgen.NewCA("Other WebPKI")
	if err != nil {
		t.Fatal(err)
	}
	roots := x509.NewCertPool()
	store := NewTrustStore()
	for _, ca := range []*certgen.CA{ecdsaCA, seededCA} {
		roots.AddCert(ca.Cert)
		if err := store.AddX509Root(ca.Cert); err != nil {
			t.Fatal(err)
		}
	}

	now := time.Now()
	spec := certgen.LeafSpec{Organization: "Google LLC", DNSNames: []string{"*.googlevideo.com"}}
	chainOf := func(ca *certgen.CA, spec certgen.LeafSpec) []*x509.Certificate {
		t.Helper()
		issue := certgen.SelfSigned
		if ca != nil {
			issue = ca.IssueLeaf
		}
		cert, err := issue(spec)
		if err != nil {
			t.Fatal(err)
		}
		var out []*x509.Certificate
		for _, der := range cert.Certificate {
			c, err := x509.ParseCertificate(der)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
		return out
	}
	valid := chainOf(ecdsaCA, spec)
	future := spec
	future.NotBefore, future.NotAfter = now.Add(24*time.Hour), now.Add(48*time.Hour)
	tamperedDER := append([]byte(nil), valid[0].Raw...)
	tamperedDER[len(tamperedDER)-1] ^= 0xff
	tampered, err := x509.ParseCertificate(tamperedDER)
	if err != nil {
		t.Fatal(err)
	}
	// A home-made CA that copies the trusted root's name and
	// SubjectKeyId, but not its key.
	spoofKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tpl := *ecdsaCA.Cert
	tpl.PublicKey = spoofKey.Public()
	spoofDER, err := x509.CreateCertificate(rand.Reader, &tpl, &tpl, spoofKey.Public(), spoofKey)
	if err != nil {
		t.Fatal(err)
	}
	spoofCert, err := x509.ParseCertificate(spoofDER)
	if err != nil {
		t.Fatal(err)
	}
	spoofed := chainOf(&certgen.CA{Cert: spoofCert, Key: spoofKey}, spec)

	for _, tc := range []struct {
		name   string
		chain  []*x509.Certificate
		at     time.Time
		reason string // "" means valid
	}{
		{"valid", valid, now, ""},
		{"valid-ed25519-ca", chainOf(seededCA, spec), now, ""},
		{"issuer-not-presented", valid[:1], now, ""},
		{"self-signed", chainOf(nil, spec), now, ReasonSelfSigned},
		{"expired", valid, now.AddDate(2, 0, 0), ReasonExpired},
		{"not-yet-valid", chainOf(ecdsaCA, future), now, ReasonNotYetValid},
		{"foreign-root", chainOf(foreignCA, spec), now, ReasonUntrusted},
		{"tampered-signature", []*x509.Certificate{tampered, valid[1]}, now, ReasonForged},
		{"tampered-issuer-not-presented", []*x509.Certificate{tampered}, now, ReasonForged},
		{"foreign-issuer-not-presented", chainOf(foreignCA, spec)[:1], now, ReasonUntrusted},
		{"spoofed-root-key-id", spoofed, now, ReasonUntrusted},
		{"spoofed-issuer-not-presented", spoofed[:1], now, ReasonForged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inter := x509.NewCertPool()
			for _, c := range tc.chain[1:] {
				inter.AddCert(c)
			}
			_, xerr := tc.chain[0].Verify(x509.VerifyOptions{Roots: roots, Intermediates: inter, CurrentTime: tc.at})
			merr := Verify(FromX509(tc.chain, store), tc.at, store)
			if (xerr == nil) != (merr == nil) {
				t.Fatalf("x509 verdict %v, model verdict %v", xerr, merr)
			}
			if got := Reason(merr); got != tc.reason {
				t.Errorf("model reason = %q, want %q (x509: %v)", got, tc.reason, xerr)
			}
		})
	}
}

// TestFromX509Fields checks the fields §4.2–§4.3 read off the leaf.
func TestFromX509Fields(t *testing.T) {
	ca, err := certgen.NewCAFromSeed("Seeded WebPKI", [32]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueLeaf(certgen.LeafSpec{Organization: "Netflix, Inc.", DNSNames: []string{"*.nflxvideo.net"}})
	if err != nil {
		t.Fatal(err)
	}
	ch := FromX509([]*x509.Certificate{cert.Leaf, ca.Cert}, nil)
	leaf, root := ch[0], ch[1]
	if leaf.Subject.Organization != "Netflix, Inc." || len(leaf.DNSNames) != 1 || leaf.DNSNames[0] != "*.nflxvideo.net" {
		t.Errorf("leaf = %+v", leaf)
	}
	if leaf.IsCA || !root.IsCA {
		t.Errorf("IsCA: leaf %t, root %t", leaf.IsCA, root.IsCA)
	}
	if leaf.SignedBy != root.Key || !root.SelfSigned() || leaf.SelfSigned() {
		t.Errorf("linkage: leaf %d signed by %d; root %d signed by %d", leaf.Key, leaf.SignedBy, root.Key, root.SignedBy)
	}
	// A second CA from the same seed is the same key: the trust store
	// of one process anchors the chains of another.
	again, err := certgen.NewCAFromSeed("Seeded WebPKI", [32]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	if k := FromX509([]*x509.Certificate{again.Cert}, nil)[0].Key; k != root.Key {
		t.Errorf("seeded CA key changed across instances: %d vs %d", k, root.Key)
	}
}
