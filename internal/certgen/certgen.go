// Package certgen mints real X.509 certificates (ECDSA P-256 leaves) for
// the live-network path: the loopback server farm serves them over
// genuine TLS handshakes and the probe scanner fetches them, just like
// the paper's certigo/ZGrab2 scans did. The simulated corpuses use
// package certmodel instead; this package is only for code paths that
// cross a real crypto/tls connection.
package certgen

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"time"
)

// CA is a certificate authority holding a signing key.
type CA struct {
	Cert *x509.Certificate
	Key  crypto.Signer
}

var serialCounter int64 = 1000

func nextSerial() *big.Int {
	serialCounter++
	return big.NewInt(serialCounter)
}

// NewCA creates a self-signed root CA valid for ten years, under a
// fresh random ECDSA key.
func NewCA(name string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("certgen: %w", err)
	}
	return newCA(name, key)
}

// NewCAFromSeed creates a root CA whose Ed25519 key derives from seed,
// so a chain minted by one process verifies under the next process's
// CA (ecdsa.GenerateKey gives no such promise for a seeded reader).
func NewCAFromSeed(name string, seed [ed25519.SeedSize]byte) (*CA, error) {
	return newCA(name, ed25519.NewKeyFromSeed(seed[:]))
}

func newCA(name string, key crypto.Signer) (*CA, error) {
	tpl := &x509.Certificate{
		SerialNumber:          nextSerial(),
		Subject:               pkix.Name{Organization: []string{name}, CommonName: name + " Root"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().AddDate(10, 0, 0),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, tpl, key.Public(), key)
	if err != nil {
		return nil, fmt.Errorf("certgen: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("certgen: %w", err)
	}
	return &CA{Cert: cert, Key: key}, nil
}

// LeafSpec describes an end-entity certificate to issue.
type LeafSpec struct {
	Organization string
	CommonName   string
	DNSNames     []string
	NotBefore    time.Time
	NotAfter     time.Time
}

func (spec *LeafSpec) defaults() {
	if spec.CommonName == "" && len(spec.DNSNames) > 0 {
		spec.CommonName = spec.DNSNames[0]
	}
	if spec.NotBefore.IsZero() {
		spec.NotBefore = time.Now().Add(-time.Hour)
	}
	if spec.NotAfter.IsZero() {
		spec.NotAfter = time.Now().AddDate(1, 0, 0)
	}
}

// IssueLeaf mints a CA-signed server certificate ready for crypto/tls.
func (ca *CA) IssueLeaf(spec LeafSpec) (tls.Certificate, error) {
	spec.defaults()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("certgen: %w", err)
	}
	tpl := &x509.Certificate{
		SerialNumber: nextSerial(),
		Subject:      pkix.Name{Organization: []string{spec.Organization}, CommonName: spec.CommonName},
		DNSNames:     spec.DNSNames,
		NotBefore:    spec.NotBefore,
		NotAfter:     spec.NotAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, ca.Cert, &key.PublicKey, ca.Key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("certgen: %w", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("certgen: %w", err)
	}
	return tls.Certificate{
		Certificate: [][]byte{der, ca.Cert.Raw},
		PrivateKey:  key,
		Leaf:        leaf,
	}, nil
}

// SelfSigned mints a self-signed server certificate — the kind §4.1
// rejects.
func SelfSigned(spec LeafSpec) (tls.Certificate, error) {
	spec.defaults()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("certgen: %w", err)
	}
	tpl := &x509.Certificate{
		SerialNumber: nextSerial(),
		Subject:      pkix.Name{Organization: []string{spec.Organization}, CommonName: spec.CommonName},
		DNSNames:     spec.DNSNames,
		NotBefore:    spec.NotBefore,
		NotAfter:     spec.NotAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, tpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("certgen: %w", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("certgen: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}, nil
}
