// Package certmodel models the subset of X.509 the paper's methodology
// consumes: end-entity and CA certificates with Subject Organization,
// dNSNames, validity windows, and chains of trust verified against a
// WebPKI-style root store.
//
// Signatures are simulated: every certificate carries the key ID of its
// signer, and verification checks issuer linkage, CA bits, validity
// windows, and anchoring in a TrustStore. This keeps corpus generation of
// tens of millions of certificate records cheap while preserving every
// validation decision the pipeline makes (§4.1): expired certificates,
// self-signed end entities, forged or broken chains, and untrusted roots
// are all representable and all rejected for the same reasons as in the
// paper. Real certificates fetched over the live network path enter the
// model through FromX509, which turns their signatures into the same
// key linkage, so corpus records and live probes validate alike.
package certmodel

import (
	"crypto/x509"
	"errors"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// KeyID identifies a (simulated) public key.
type KeyID uint64

// Name is the subset of an X.509 distinguished name the methodology reads.
type Name struct {
	Organization string
	CommonName   string
	Country      string
}

// Certificate is one X.509-shaped certificate. Certificates are immutable
// after creation; Fingerprint caches the content hash.
type Certificate struct {
	SerialNumber uint64
	Subject      Name
	Issuer       Name
	DNSNames     []string // authenticated dNSName SAN entries
	NotBefore    time.Time
	NotAfter     time.Time
	IsCA         bool

	// Key is this certificate's public key; SignedBy is the key that
	// produced the signature. A self-signed certificate has
	// SignedBy == Key. Forged marks a signature that does not verify
	// (e.g. a tampered certificate).
	Key      KeyID
	SignedBy KeyID
	Forged   bool

	// fingerprint caches the content hash; accessed atomically so
	// shared certificates (interned intermediates) are safe under
	// concurrent readers.
	fingerprint atomic.Uint64
}

// Fingerprint is a stable content hash of a certificate, used to group IP
// addresses serving the same certificate (Fig. 11).
type Fingerprint uint64

// Fingerprint returns the certificate's content hash, computing and
// caching it on first use.
func (c *Certificate) Fingerprint() Fingerprint {
	if fp := c.fingerprint.Load(); fp != 0 {
		return Fingerprint(fp)
	}
	// The hashed bytes are serial|org|cn|issuer-org|issuer-cn|dNSNames
	// joined by ","|notBefore|notAfter|isCA|key|signedBy|forged, built
	// with strconv rather than fmt: inference hashes the leaf of every
	// record it matches to a hypergiant.
	var buf [256]byte
	b := strconv.AppendUint(buf[:0], c.SerialNumber, 10)
	for _, s := range [...]string{c.Subject.Organization, c.Subject.CommonName, c.Issuer.Organization, c.Issuer.CommonName} {
		b = append(append(b, '|'), s...)
	}
	b = append(b, '|')
	for i, name := range c.DNSNames {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, name...)
	}
	b = strconv.AppendInt(append(b, '|'), c.NotBefore.Unix(), 10)
	b = strconv.AppendInt(append(b, '|'), c.NotAfter.Unix(), 10)
	b = strconv.AppendBool(append(b, '|'), c.IsCA)
	b = strconv.AppendUint(append(b, '|'), uint64(c.Key), 10)
	b = strconv.AppendUint(append(b, '|'), uint64(c.SignedBy), 10)
	b = strconv.AppendBool(append(b, '|'), c.Forged)
	h := fnv.New64a()
	h.Write(b)
	fp := h.Sum64()
	if fp == 0 {
		fp = 1
	}
	c.fingerprint.Store(fp)
	return Fingerprint(fp)
}

// SelfSigned reports whether the certificate is signed by its own key.
func (c *Certificate) SelfSigned() bool { return c.Key == c.SignedBy }

// MatchesOrganization performs the paper's case-insensitive substring
// search of a hypergiant keyword in the Subject Organization (§4.2).
func (c *Certificate) MatchesOrganization(keyword string) bool {
	return strings.Contains(strings.ToLower(c.Subject.Organization), strings.ToLower(keyword))
}

// Clone returns a deep copy, used when the simulator derives tampered or
// renewed variants of a certificate.
func (c *Certificate) Clone() *Certificate {
	dup := &Certificate{
		SerialNumber: c.SerialNumber,
		Subject:      c.Subject,
		Issuer:       c.Issuer,
		DNSNames:     append([]string(nil), c.DNSNames...),
		NotBefore:    c.NotBefore,
		NotAfter:     c.NotAfter,
		IsCA:         c.IsCA,
		Key:          c.Key,
		SignedBy:     c.SignedBy,
		Forged:       c.Forged,
	}
	return dup
}

// Chain is an ordered certificate chain: the end-entity certificate
// first, then intermediates, ending at (or just below) a root.
type Chain []*Certificate

// Leaf returns the end-entity certificate, or nil for an empty chain.
func (ch Chain) Leaf() *Certificate {
	if len(ch) == 0 {
		return nil
	}
	return ch[0]
}

// TrustStore is the set of trusted root keys — the stand-in for the
// Common CA Database WebPKI list the paper validates against.
type TrustStore struct {
	roots map[KeyID]*Certificate
	x509  []*x509.Certificate // real roots, for FromX509
}

// NewTrustStore returns an empty store.
func NewTrustStore() *TrustStore {
	return &TrustStore{roots: make(map[KeyID]*Certificate)}
}

// AddRoot registers a root CA certificate as trusted. Non-CA certificates
// are rejected.
func (s *TrustStore) AddRoot(c *Certificate) error {
	if !c.IsCA {
		return errors.New("certmodel: trust store roots must be CA certificates")
	}
	s.roots[c.Key] = c
	return nil
}

// Trusted reports whether key belongs to a trusted root.
func (s *TrustStore) Trusted(key KeyID) bool {
	_, ok := s.roots[key]
	return ok
}

// Roots returns the trusted root certificates in deterministic order.
func (s *TrustStore) Roots() []*Certificate {
	out := make([]*Certificate, 0, len(s.roots))
	for _, c := range s.roots {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// VerifyError explains why a chain failed §4.1 validation. Reason is one
// of the Reason* constants; the pipeline aggregates failures by reason to
// reproduce the paper's "more than one third of hosts returned invalid
// certificates" statistic. Verify returns one shared value per reason,
// so callers must not modify it.
type VerifyError struct {
	Reason string
}

func (e *VerifyError) Error() string {
	return "certmodel: invalid chain: " + e.Reason
}

// Chain-verification failure reasons.
const (
	ReasonEmptyChain   = "empty-chain"
	ReasonExpired      = "expired"
	ReasonNotYetValid  = "not-yet-valid"
	ReasonSelfSigned   = "self-signed-leaf"
	ReasonBrokenChain  = "broken-chain"
	ReasonForged       = "forged-signature"
	ReasonNotCA        = "intermediate-not-ca"
	ReasonUntrusted    = "untrusted-root"
	ReasonExpiredChain = "expired-intermediate"
)

// One shared error per reason, built once: about a third of scanned
// chains fail, and rejecting one must cost no allocation.
var (
	errEmptyChain   = &VerifyError{ReasonEmptyChain}
	errExpired      = &VerifyError{ReasonExpired}
	errNotYetValid  = &VerifyError{ReasonNotYetValid}
	errSelfSigned   = &VerifyError{ReasonSelfSigned}
	errBrokenChain  = &VerifyError{ReasonBrokenChain}
	errForged       = &VerifyError{ReasonForged}
	errNotCA        = &VerifyError{ReasonNotCA}
	errUntrusted    = &VerifyError{ReasonUntrusted}
	errExpiredChain = &VerifyError{ReasonExpiredChain}
)

// Verify checks a chain at time at against the trust store, applying
// exactly the §4.1 rules: the leaf must be inside its validity window and
// must not be self-signed, every signature must link and verify, every
// issuer must be a CA valid at time at, and the chain must anchor at a
// trusted root. A nil error means the chain is valid; an invalid chain
// gets the *VerifyError shared by every chain failing for its reason.
func Verify(ch Chain, at time.Time, store *TrustStore) error {
	if len(ch) == 0 {
		return errEmptyChain
	}
	leaf := ch[0]
	if at.Before(leaf.NotBefore) {
		return errNotYetValid
	}
	if at.After(leaf.NotAfter) {
		return errExpired
	}
	if leaf.SelfSigned() {
		// Anyone can mint a certificate naming any organization; the
		// paper discards all self-signed end entities.
		return errSelfSigned
	}
	for i, c := range ch {
		if c.Forged {
			return errForged
		}
		if i == 0 {
			continue
		}
		if !c.IsCA {
			return errNotCA
		}
		if at.Before(c.NotBefore) || at.After(c.NotAfter) {
			return errExpiredChain
		}
		if ch[i-1].SignedBy != c.Key {
			return errBrokenChain
		}
	}
	last := ch[len(ch)-1]
	if store.Trusted(last.Key) || store.Trusted(last.SignedBy) {
		return nil
	}
	return errUntrusted
}

// Reason extracts the failure reason from an error returned by Verify,
// or "" for nil / foreign errors, a wrapped Verify error included.
func Reason(err error) string {
	if ve, ok := err.(*VerifyError); ok {
		return ve.Reason
	}
	return ""
}

// LeafDNSNames returns the end-entity certificate's dNSNames, or nil for
// an empty chain.
func (ch Chain) LeafDNSNames() []string {
	if leaf := ch.Leaf(); leaf != nil {
		return leaf.DNSNames
	}
	return nil
}
