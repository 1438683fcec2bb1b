package orderer

import (
	"bytes"
	"math/rand"
	"testing"

	"bmac/internal/block"
	"bmac/internal/wire"
)

// refMarshalBatch is the batch encoder marshalBatch replaced, kept as its
// oracle: the batch grown from nil, each envelope marshaled on its own and
// then copied in.
func refMarshalBatch(envs []block.Envelope, seq uint64) []byte {
	out := wire.AppendUint(nil, 2, seq)
	for i := range envs {
		out = wire.AppendBytesAlways(out, 1, block.MarshalEnvelope(&envs[i]))
	}
	return out
}

// TestBatchEncodingMatchesReference: over seeded random batches — empty
// batches, empty envelopes, a zero sequence — marshalBatch writes the
// reference's bytes in one exact-size allocation, and they decode back.
func TestBatchEncodingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	field := func(max int) []byte {
		if rng.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, 1+rng.Intn(max))
		rng.Read(b)
		return b
	}
	for i := 0; i < 2000; i++ {
		envs := make([]block.Envelope, rng.Intn(6))
		for j := range envs {
			envs[j] = block.Envelope{PayloadBytes: field(3000), Signature: field(72)}
		}
		seq := rng.Uint64() >> rng.Intn(64)
		if rng.Intn(4) == 0 {
			seq = 0
		}
		got, want := marshalBatch(envs, seq), refMarshalBatch(envs, seq)
		if !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("batch %d: got %x (cap %d), want %x", i, got, cap(got), want)
		}
		back, backSeq, err := unmarshalBatch(got)
		if err != nil || backSeq != seq || len(back) != len(envs) {
			t.Fatalf("batch %d: decoded %d envelopes, seq %d, err %v", i, len(back), backSeq, err)
		}
		if n := testing.AllocsPerRun(5, func() { marshalBatch(envs, seq) }); n > 1 { // 0 for an empty batch
			t.Fatalf("batch %d: %.1f allocations per marshalBatch, want 1", i, n)
		}
	}
}

// TestUnmarshalBatchRejectsWireTypes: an envelope field tagged varint, or a
// sequence tagged length-delimited, is malformed — not read as the other.
func TestUnmarshalBatchRejectsWireTypes(t *testing.T) {
	for name, data := range map[string][]byte{
		"varint envelope":           append(wire.AppendTag(nil, 1, wire.TypeVarint), 3, 'a', 'b', 'c'),
		"length-delimited sequence": wire.AppendBytes(nil, 2, []byte{7}),
	} {
		if _, _, err := unmarshalBatch(data); err == nil {
			t.Errorf("%s: decoded cleanly, want error", name)
		}
	}
}
