package certmodel

import (
	"bytes"
	"crypto/x509"
	"crypto/x509/pkix"
	"hash/fnv"
)

// FromX509 bridges a chain presented over a real TLS handshake (leaf
// first) into the model, filling in every field §4.1 reads, so a live
// probe validates through Verify exactly like a corpus record.
//
// Key is a hash of the certificate's public key, never a key identifier
// the certificate merely claims. SignedBy is the certificate's own key
// when its self-signature verifies. Otherwise it is the key of its
// issuer: the next presented certificate or, past the end of the chain,
// the store's real root (AddX509Root) named as the issuer, with Forged
// set when that key does not verify the signature. An issuer that is
// neither presented nor a root stays unknown (zero): the chain cannot
// anchor.
func FromX509(chain []*x509.Certificate, store *TrustStore) Chain {
	out := make(Chain, len(chain))
	for i, c := range chain {
		out[i] = &Certificate{
			SerialNumber: c.SerialNumber.Uint64(),
			Subject:      x509Name(c.Subject),
			Issuer:       x509Name(c.Issuer),
			DNSNames:     c.DNSNames,
			NotBefore:    c.NotBefore,
			NotAfter:     c.NotAfter,
			IsCA:         c.BasicConstraintsValid && c.IsCA,
			Key:          keyOf(c),
		}
	}
	for i, c := range chain {
		m, next := out[i], i+1 < len(chain)
		switch {
		case next && signs(chain[i+1], c):
			m.SignedBy = out[i+1].Key
		case signs(c, c):
			m.SignedBy = m.Key
		case next:
			m.SignedBy, m.Forged = out[i+1].Key, true
		case store != nil:
			if root := store.rootFor(c); root != nil {
				m.SignedBy, m.Forged = keyOf(root), !signs(root, c)
			}
		}
	}
	return out
}

// AddX509Root trusts a real CA certificate. FromX509 then resolves a
// chain that stops below this root to it.
func (s *TrustStore) AddX509Root(c *x509.Certificate) error {
	if err := s.AddRoot(FromX509([]*x509.Certificate{c}, nil)[0]); err != nil {
		return err
	}
	s.x509 = append(s.x509, c)
	return nil
}

// rootFor returns the real root named as c's issuer, preferring one
// whose key verifies c's signature, or nil when no root has that name.
func (s *TrustStore) rootFor(c *x509.Certificate) (named *x509.Certificate) {
	for _, r := range s.x509 {
		if bytes.Equal(r.RawSubject, c.RawIssuer) && (named == nil || signs(r, c)) {
			named = r
		}
	}
	return named
}

// signs reports whether issuer's key verifies c's signature.
func signs(issuer, c *x509.Certificate) bool {
	return issuer.CheckSignature(c.SignatureAlgorithm, c.RawTBSCertificate, c.Signature) == nil
}

func keyOf(c *x509.Certificate) KeyID {
	h := fnv.New64a()
	h.Write(c.RawSubjectPublicKeyInfo)
	return KeyID(h.Sum64())
}

func x509Name(n pkix.Name) Name {
	name := Name{CommonName: n.CommonName}
	if len(n.Organization) > 0 {
		name.Organization = n.Organization[0]
	}
	return name
}
