// Package fabcrypto provides the cryptographic substrate used throughout the
// Blockchain Machine reproduction: 256-bit ECDSA (Fabric's default scheme)
// with DER-encoded signatures, SHA-256 hashing, and generation of the X.509
// certificates that act as node identities.
//
// The paper's protocol_processor includes a DER decoder post-processor that
// splits a signature into its (r, s) halves as 256-bit values for the ECDSA
// verification hardware, and an X.509 post-processor that extracts the public
// key from an identity certificate; both are implemented here and exercised
// by internal/bmacproto.
//
// Verification (Verify, VerifyDigest, VerifyParts, Batch, and through them
// every validation path) runs on the package's own ecdsa_engine,
// keytable.go: per-identity precomputed tables for the keys that recur,
// crypto/ecdsa for everything else, the same verdict either way. That
// engine is variable time, which is sound because a verification has no
// secret input.
//
// Hashing is crypto/sha256's single stream (SHA-NI where the CPU has it)
// for one message at a time (Hash, Message.Hash, StreamHasher). HashBatch
// hashes independent messages — a vscc range's client payloads, a round's
// endorsement messages — sixteen at a time, one per 32-bit lane of an
// AVX-512 register (sha256_lanes_amd64.s): the software's counterpart of
// the paper's SHA-256 calculators running beside the ecdsa_engines. It
// takes the lanes only where the CPU has them and the batch fills them,
// and gives crypto/sha256's digests either way.
//
// Signing (Signer.Sign, SignDigest) runs on the package's own RFC 6979
// signer, sign.go, byte for byte crypto/ecdsa's signature after low-S. Its
// secrets — the key, the nonce and their products — touch only ordMul, a
// masked addition mod n, the nonce DRBG and R = k·G: on amd64 CPUs with
// AVX-512 IFMA a constant-time 8-lane fixed-base comb (sign_lanes.go, on
// the verifier's lane kernel), elsewhere crypto/ecdh. The variable-time
// inversions it shares with the verifier see only values blinded by fresh
// random factors, k·b and Z·β. The build-tagged timing test checks exactly
// that.
package fabcrypto

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"time"
)

// HashSize is the size of a SHA-256 digest in bytes.
const HashSize = sha256.Size

// ScalarSize is the size in bytes of a P-256 scalar (one signature half).
const ScalarSize = 32

var (
	// ErrBadSignature reports a malformed DER signature.
	ErrBadSignature = errors.New("fabcrypto: malformed DER signature")
	// ErrVerifyFailed reports a signature that does not verify.
	ErrVerifyFailed = errors.New("fabcrypto: signature verification failed")
)

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) [HashSize]byte {
	return sha256.Sum256(data)
}

// HashSlice returns the SHA-256 digest of data as a byte slice.
func HashSlice(data []byte) []byte {
	h := sha256.Sum256(data)
	return h[:]
}

// StreamHasher is an incremental SHA-256 calculator mirroring the paper's
// stream-based hash calculators in the protocol_processor: three of them run
// in parallel over block data, transaction sections, and endorsement data.
// It hashes one stream at a time, for data that arrives in pieces (the BMac
// receiver's packets, the commit hash's parts); a message whose parts are
// all at hand is a Message, and many of them are a HashBatch. The zero value
// is ready; it holds the hash state, not the data.
type StreamHasher struct {
	inner [HashSize]byte
	h     hash.Hash // nil until the first use
}

func (s *StreamHasher) state() hash.Hash {
	if s.h == nil {
		s.h = sha256.New()
	}
	return s.h
}

// Write appends data to the stream.
func (s *StreamHasher) Write(p []byte) {
	s.state().Write(p)
}

// Sum finalizes and returns the digest of everything written so far.
func (s *StreamHasher) Sum() []byte {
	return s.state().Sum(s.inner[:0])
}

// Reset clears the stream for reuse.
func (s *StreamHasher) Reset() {
	if s.h != nil {
		s.h.Reset()
	}
}

// Signer holds an ECDSA P-256 private key and produces DER signatures over
// SHA-256 digests, matching Fabric's default BCCSP configuration.
type Signer struct {
	priv *ecdsa.PrivateKey
}

// NewSigner generates a fresh P-256 key pair.
func NewSigner() (*Signer, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate P-256 key: %w", err)
	}
	return &Signer{priv: priv}, nil
}

// DeriveSigner derives a P-256 key pair from seed and name: the scalar is
// HMAC-SHA256(seed, name‖counter), a big-endian uint32 counter from 0 that
// moves on while crypto/ecdh rejects the output (0 or ≥ n). One seed and
// name always give the same key.
func DeriveSigner(seed []byte, name string) *Signer {
	for ctr := uint32(0); ; ctr++ {
		mac := hmac.New(sha256.New, seed)
		mac.Write(binary.BigEndian.AppendUint32([]byte(name), ctr))
		d := mac.Sum(nil)
		k, err := ecdh.P256().NewPrivateKey(d)
		if err != nil {
			continue
		}
		pub := k.PublicKey().Bytes() // 0x04 ‖ X ‖ Y
		return &Signer{priv: &ecdsa.PrivateKey{
			PublicKey: ecdsa.PublicKey{
				Curve: elliptic.P256(),
				X:     new(big.Int).SetBytes(pub[1 : 1+ScalarSize]),
				Y:     new(big.Int).SetBytes(pub[1+ScalarSize:]),
			},
			D: new(big.Int).SetBytes(d),
		}}
	}
}

// Public returns the signer's public key.
func (s *Signer) Public() *ecdsa.PublicKey { return &s.priv.PublicKey }

// Private returns the underlying private key (needed for certificate
// issuance by internal/identity).
func (s *Signer) Private() *ecdsa.PrivateKey { return s.priv }

// Sign hashes msg with SHA-256 and returns a DER-encoded ECDSA signature.
// Fabric normalizes s to the low half of the curve order ("low-S") to avoid
// signature malleability; we do the same.
func (s *Signer) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	return s.SignDigest(digest[:])
}

// SignDigest signs a precomputed SHA-256 digest; a digest of any other
// length than 32 bytes is an error. The nonce is RFC 6979's, derived from
// the key and the digest, so one key signing one digest always gives the
// same signature: crypto/ecdsa's (*PrivateKey).Sign(nil, …) with s replaced
// by n − s when it is in the high half of the order (sign.go).
func (s *Signer) SignDigest(digest []byte) ([]byte, error) { return s.signDigest(digest, combBase()) }

// SignDigestECDH is SignDigest with R = k·G by crypto/ecdh on every CPU: the
// same signature, for the hotpath record's row beside SignDigest's.
func (s *Signer) SignDigestECDH(digest []byte) ([]byte, error) { return s.signDigest(digest, false) }

func (s *Signer) signDigest(digest []byte, lanes bool) ([]byte, error) {
	if len(digest) != HashSize {
		return nil, fmt.Errorf("ecdsa sign: %d-byte digest, want %d", len(digest), HashSize)
	}
	var d [ScalarSize]byte
	if D := s.priv.D; D.Sign() > 0 && D.BitLen() <= 8*ScalarSize {
		D.FillBytes(d[:])
	}
	p, err := signDigest(&d, (*[HashSize]byte)(digest), lanes)
	if err != nil {
		return nil, fmt.Errorf("ecdsa sign: %w", err)
	}
	return PartsToDER(p), nil
}

// PartsToDER writes the (r, s) of a P-256 signature — both in [1, N) — as
// DER by hand, in one exact-size allocation: SEQUENCE { INTEGER r, INTEGER
// s }, each INTEGER its minimal big-endian bytes behind a zero byte when the
// top bit is set. At most 70 content bytes, so every length fits the short
// form. The signing path's encoder and DecodeDERToParts' inverse; only a
// signature's public halves pass through here.
func PartsToDER(parts SignatureParts) []byte {
	rm, sm := derMagnitude(parts.R[:]), derMagnitude(parts.S[:])
	n := derIntSize(rm) + derIntSize(sm)
	out := make([]byte, 0, 2+n)
	out = append(out, 0x30, byte(n))
	return appendDERInt(appendDERInt(out, rm), sm)
}

// derMagnitude strips the leading zero bytes of a big-endian value, keeping
// at least one byte.
func derMagnitude(b []byte) []byte {
	for len(b) > 1 && b[0] == 0 {
		b = b[1:]
	}
	return b
}

func derIntSize(m []byte) int { return 2 + len(m) + int(m[0]>>7) }

func appendDERInt(dst, m []byte) []byte {
	dst = append(dst, 0x02, byte(derIntSize(m)-2))
	if m[0]&0x80 != 0 {
		dst = append(dst, 0)
	}
	return append(dst, m...)
}

// Verify checks a DER signature over msg against pub.
func Verify(pub *ecdsa.PublicKey, msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	return VerifyDigest(pub, digest[:], sig)
}

// VerifyDigest checks a DER signature over a precomputed digest. The DER is
// decoded once, to the fixed-width halves the verification engine consumes.
func VerifyDigest(pub *ecdsa.PublicKey, digest, sig []byte) error {
	parts, err := DecodeDERToParts(sig)
	if err != nil {
		return err
	}
	return verdict(VerifyParts(pub, digest, parts))
}

// verdict is the error of a computed verification: nil when it verified.
func verdict(valid bool) error {
	if !valid {
		return ErrVerifyFailed
	}
	return nil
}

// nHalfLimbs is ⌊n/2⌋, the largest low-S value, as little-endian limbs.
var nHalfLimbs = [4]uint64{0x79dce5617e3192a8, 0xde737d56d38bcf42, 0x7fffffffffffffff, 0x7fffffff80000000}

// SignatureParts is the output of the protocol_processor's DER decoder
// post-processor: the two signature halves as fixed-width 256-bit values,
// the representation expected by the ecdsa_engine hardware.
type SignatureParts struct {
	R [ScalarSize]byte
	S [ScalarSize]byte
}

// DecodeDERToParts is the DER decoder post-processor: the mirror of
// PartsToDER, it accepts what that writes and nothing else — SEQUENCE {
// INTEGER r, INTEGER s } with short-form lengths, each INTEGER minimal and
// positive and at most 256 bits wide, no byte after s or after the
// SEQUENCE. That is crypto/ecdsa.VerifyASN1's strict DER less what no P-256
// signature can hold, so nothing rejected here verifies there. Signatures
// arrive from clients: anything else is ErrBadSignature, never a panic.
//
// bmaclint:noalloc
func DecodeDERToParts(sig []byte) (parts SignatureParts, err error) {
	if len(sig) < 2 || sig[0] != 0x30 || sig[1] >= 0x80 || int(sig[1]) != len(sig)-2 {
		return parts, ErrBadSignature
	}
	rest, ok := readDERInt(&parts.R, sig[2:])
	if ok {
		rest, ok = readDERInt(&parts.S, rest)
	}
	if !ok || len(rest) != 0 {
		return SignatureParts{}, ErrBadSignature
	}
	return parts, nil
}

// readDERInt reads the INTEGER at the front of der — minimal, in [1, 2²⁵⁶)
// — into dst, right-aligned, and returns the bytes after it.
func readDERInt(dst *[ScalarSize]byte, der []byte) (rest []byte, ok bool) {
	if len(der) < 2 || der[0] != 0x02 || der[1] == 0 || int(der[1]) > min(len(der)-2, ScalarSize+1) {
		return nil, false
	}
	v, rest := der[2:2+der[1]], der[2+der[1]:]
	if len(v) > 1 && v[0] == 0 && v[1]&0x80 != 0 {
		v = v[1:] // the zero byte in front of a set top bit
	} else if v[0] == 0 || v[0]&0x80 != 0 || len(v) > ScalarSize {
		return nil, false // zero or a redundant zero byte, negative, wider than 256 bits
	}
	copy(dst[ScalarSize-len(v):], v)
	return rest, true
}

// VerifyParts verifies a signature given in hardware (r, s) representation.
// This is the exact operation one ecdsa_engine instance performs on a
// verification request tuple — a public key, a 32-byte digest, a 32-byte r
// and a 32-byte s — and the one place every verification of this
// repository ends up: the verdict is crypto/ecdsa's, computed from the key's
// table when it has one (keytable.go).
func VerifyParts(pub *ecdsa.PublicKey, digest []byte, parts SignatureParts) bool {
	one := [1]verifyReq{{verifyKey: resolveKey(pub), digest: digest, parts: parts}}
	engine.verify(one[:])
	return one[0].valid
}

// CertTemplate describes an identity certificate to issue.
type CertTemplate struct {
	CommonName   string
	Organization string
	IsCA         bool
	SerialNumber int64
	NotBefore    time.Time
	Lifetime     time.Duration
}

// IssueCertificate creates a DER-encoded X.509 certificate for subjectPub,
// signed by issuerKey (self-signed when issuer == nil). It draws no
// randomness: the signature is RFC 6979's, so one template and key pair
// always give the same bytes. Fabric identities are X.509 certificates of
// roughly 860 bytes; the subject fields here are sized to land in that
// range so the protocol bandwidth experiments (Figure 9a) see realistic
// identity weight.
func IssueCertificate(tmpl CertTemplate, subjectPub *ecdsa.PublicKey,
	issuer *x509.Certificate, issuerKey *ecdsa.PrivateKey) ([]byte, error) {
	notBefore := tmpl.NotBefore
	if notBefore.IsZero() {
		notBefore = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	lifetime := tmpl.Lifetime
	if lifetime == 0 {
		lifetime = 10 * 365 * 24 * time.Hour
	}
	template := &x509.Certificate{
		SerialNumber: big.NewInt(tmpl.SerialNumber),
		Subject: pkix.Name{
			CommonName:         tmpl.CommonName,
			Organization:       []string{tmpl.Organization},
			OrganizationalUnit: []string{"fabric-membership-service"},
			Country:            []string{"SG"},
			Locality:           []string{"Singapore"},
			Province:           []string{"Singapore"},
		},
		NotBefore:             notBefore,
		NotAfter:              notBefore.Add(lifetime),
		KeyUsage:              x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  tmpl.IsCA,
	}
	if tmpl.IsCA {
		template.KeyUsage |= x509.KeyUsageCertSign
	}
	parent := issuer
	if parent == nil {
		parent = template // self-signed
	}
	der, err := x509.CreateCertificate(nil, template, parent, subjectPub, issuerKey)
	if err != nil {
		return nil, fmt.Errorf("create certificate %q: %w", tmpl.CommonName, err)
	}
	return der, nil
}

// ParseCertificate parses a DER certificate.
func ParseCertificate(der []byte) (*x509.Certificate, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("parse certificate: %w", err)
	}
	return cert, nil
}

// PublicKeyFromCert extracts the ECDSA public key from a DER certificate.
// This mirrors the protocol_processor's X.509 post-processor.
func PublicKeyFromCert(der []byte) (*ecdsa.PublicKey, error) {
	cert, err := ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, errNotECDSA(cert)
	}
	return pub, nil
}

func errNotECDSA(cert *x509.Certificate) error {
	return fmt.Errorf("certificate %q: not an ECDSA key", cert.Subject.CommonName)
}
