package block

import (
	"bytes"
	"errors"
	"testing"

	"bmac/internal/identity"
	"bmac/internal/wire"
)

// hostileBlockBytes builds a realistic signed block with endorsed
// envelopes and returns its marshaled form — the honest baseline every
// hostile mutation below starts from.
func hostileBlockBytes(t testing.TB) []byte {
	t.Helper()
	n := identity.NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	endorser, err := n.NewIdentity("Org1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := n.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	var envs []Envelope
	for i := 0; i < 3; i++ {
		env, err := NewEndorsedEnvelope(TxSpec{
			Creator:   client,
			Chaincode: "cc",
			Channel:   "ch",
			RWSet: RWSet{
				Reads:  []KVRead{{Key: "k", Version: Version{}}},
				Writes: []KVWrite{{Key: "k", Value: []byte("v")}},
			},
			Endorsers: []*identity.Identity{endorser},
		})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	b, err := NewBlock(3, []byte("prevprevprevprevprevprevprevprev"), envs, ord)
	if err != nil {
		t.Fatal(err)
	}
	return Marshal(b)
}

// decodeHostile runs Unmarshal on one hostile input, converting any panic
// into a test failure and checking the input is never mutated. A clean
// decode of a mutated input is acceptable (a bit flip inside an opaque
// byte field changes content, not structure) — but whatever decoded must
// re-marshal without panicking.
func decodeHostile(t *testing.T, label string, data []byte) (decodeErr error) {
	t.Helper()
	orig := append([]byte(nil), data...)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Unmarshal panicked: %v", label, r)
		}
		if !bytes.Equal(orig, data) {
			t.Fatalf("%s: Unmarshal mutated its input", label)
		}
	}()
	b, err := Unmarshal(data)
	if err != nil {
		return err
	}
	_ = Marshal(b)
	return nil
}

// TestUnmarshalTruncatedNeverPanics feeds every strict prefix of a valid
// marshaled block to Unmarshal: no truncation may panic, mutate the
// input, or read past the buffer (bounds violations panic under Go), and
// a cut mid-field must surface an error rather than a silently shortened
// block.
func TestUnmarshalTruncatedNeverPanics(t *testing.T) {
	data := hostileBlockBytes(t)
	rejected := 0
	for n := 0; n < len(data); n++ {
		// A fresh buffer sized exactly to the prefix, so any read past the
		// truncation point is out of bounds, not a quiet read into the
		// original tail.
		trunc := make([]byte, n)
		copy(trunc, data[:n])
		if decodeHostile(t, "truncated", trunc) != nil {
			rejected++
		}
	}
	// Only cuts that land exactly on a top-level field boundary can decode
	// (a valid, shorter closed-format message); everything else must be
	// rejected. There are 3 top-level fields, so at most 3 clean cuts plus
	// the empty prefix.
	if accepted := len(data) - rejected; accepted > 4 {
		t.Errorf("%d truncations of %d decoded cleanly, want <= 4 (field boundaries only)", accepted, len(data))
	}
}

// TestUnmarshalBitFlipsNeverPanic flips bits at every byte position: the
// decoder may reject the frame or decode different content (a flip inside
// an opaque byte field), but it must never panic, never mutate the input,
// and never read out of bounds.
func TestUnmarshalBitFlipsNeverPanic(t *testing.T) {
	data := hostileBlockBytes(t)
	for i := 0; i < len(data); i++ {
		for _, mask := range []byte{0x01, 0x40, 0x80} {
			mut := make([]byte, len(data))
			copy(mut, data)
			mut[i] ^= mask
			decodeHostile(t, "bitflip", mut) // bmaclint:allow errdiscard (error or clean decode both acceptable; only panics/mutation fail)
		}
	}
}

// hostileCase is one structurally malformed block encoding.
type hostileCase struct {
	name string
	data []byte
}

// hostileCases derives the malformed encodings from valid, a marshaled
// block: a length prefix claiming more bytes than exist, trailing garbage
// behind a valid block, unknown top-level fields, wrong wire types, and
// duplicate fields.
func hostileCases(t testing.TB, valid []byte) []hostileCase {
	// A known field carrying the right bytes under the varint tag: read as
	// a length, the "varint" would make the bytes behind it a field that
	// re-encodes differently.
	varintField := func(num int, v []byte) []byte {
		return append(append(wire.AppendTag(nil, num, wire.TypeVarint), byte(len(v))), v...)
	}
	return []hostileCase{
		{"huge length prefix", append(wire.AppendUint(nil, 1, 0), 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"length past end", func() []byte {
			// field 1, bytes wire type, declared length 200, 3 bytes present.
			b := []byte{0x0a, 0xc8, 0x01}
			return append(b, 1, 2, 3)
		}()},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe, 0xef)},
		{"unknown field", wire.AppendBytesAlways(append([]byte(nil), valid...), 9, []byte("x"))},
		{"varint top-level field", wire.AppendUint(append([]byte(nil), valid...), 1, 7)},
		{"duplicate header", func() []byte {
			// Re-append the first top-level field (the header) verbatim.
			r := wire.NewReader(valid)
			num, _, ok := r.Next()
			if !ok || num != 1 {
				t.Fatalf("unexpected first field %d", num)
			}
			hdr := r.Bytes()
			return wire.AppendBytesAlways(append([]byte(nil), valid...), 1, hdr)
		}()},
		{"all 0xff", bytes.Repeat([]byte{0xff}, 64)},
		{"all zero", make([]byte, 64)},
		{"varint-typed envelope payload", wire.AppendBytesAlways(nil, fBlockData,
			wire.AppendBytesAlways(nil, fDataEnvelope, varintField(fEnvelopePayload, []byte("abc"))))},
		{"varint-typed block-data entry", wire.AppendBytesAlways(nil, fBlockData,
			varintField(fDataEnvelope, wire.AppendBytes(nil, fEnvelopePayload, []byte("abc"))))},
	}
}

// TestUnmarshalOversizedAndMalformed pins the structural rejections of
// hostileCases: all must error — and none may panic or over-allocate.
func TestUnmarshalOversizedAndMalformed(t *testing.T) {
	for _, tc := range hostileCases(t, hostileBlockBytes(t)) {
		t.Run(tc.name, func(t *testing.T) {
			if err := decodeHostile(t, tc.name, tc.data); err == nil {
				t.Errorf("%s decoded cleanly, want error", tc.name)
			} else if !errors.Is(err, ErrMalformed) {
				t.Logf("%s: rejected with non-ErrMalformed error: %v", tc.name, err)
			}
		})
	}
}
