package block

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzBlockUnmarshal holds the block decoder to its contract on any input:
// it never panics and never writes its input; an error comes with a nil
// block; and what it accepts re-encodes to a fixed point — Marshal of the
// decoded block decodes again, to a block that marshals to the same bytes
// and has the same DataHash and HeaderHash. The seeds are marshaled random
// blocks and the hostile table's malformed encodings.
func FuzzBlockUnmarshal(f *testing.F) {
	valid := hostileBlockBytes(f)
	f.Add(valid)
	for _, c := range hostileCases(f, valid) {
		f.Add(c.data)
	}
	g := gen{rand.New(rand.NewSource(1))}
	for i := 0; i < 16; i++ {
		f.Add(Marshal(g.block()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		b, err := Unmarshal(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("Unmarshal wrote its input")
		}
		if err != nil {
			if b != nil {
				t.Fatalf("Unmarshal returned a block with error %v", err)
			}
			return
		}
		enc := Marshal(b)
		b2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if enc2 := Marshal(b2); !bytes.Equal(enc2, enc) {
			t.Fatalf("Marshal∘Unmarshal is not idempotent:\n%x\n%x", enc, enc2)
		}
		if !bytes.Equal(DataHash(b.Envelopes), DataHash(b2.Envelopes)) {
			t.Fatal("DataHash changed across a re-decode")
		}
		if !bytes.Equal(HeaderHash(&b.Header), HeaderHash(&b2.Header)) {
			t.Fatal("HeaderHash changed across a re-decode")
		}
	})
}
