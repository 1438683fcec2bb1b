package bmacproto

import (
	"bytes"
	"crypto/ecdsa"
	"fmt"
	"sync"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/fifo"
	"bmac/internal/identity"
)

// VerifyRequest is the {signature, key, data hash} tuple issued to one
// ecdsa_engine instance (paper §3.3).
type VerifyRequest struct {
	Parts  fabcrypto.SignatureParts
	Pub    *ecdsa.PublicKey
	Digest [fabcrypto.HashSize]byte
	// Malformed is set when the request could not be constructed (bad DER,
	// unknown identity); the engine rejects it without computing.
	Malformed bool
}

// Execute runs the verification, exactly what an ecdsa_engine does.
func (v *VerifyRequest) Execute() bool {
	if v.Malformed || v.Pub == nil {
		return false
	}
	return fabcrypto.VerifyParts(v.Pub, v.Digest[:], v.Parts)
}

// ExecuteBatch runs reqs together, as one batch of the engine on b, and
// leaves in verdicts[i] what reqs[i].Execute() returns.
func ExecuteBatch(b *fabcrypto.Batch, reqs []*VerifyRequest, verdicts []bool) {
	b.Reset(nil)
	for i, v := range reqs {
		if verdicts[i] = !v.Malformed && v.Pub != nil; verdicts[i] {
			b.AddParts(v.Pub, v.Digest[:], v.Parts)
		}
	}
	b.Run()
	n := 0 // AddParts numbers the checks in order
	for i := range verdicts {
		if verdicts[i] {
			verdicts[i] = b.Err(n) == nil
			n++
		}
	}
}

// BlockEntry is one element of block_fifo.
type BlockEntry struct {
	BlockNum uint64
	NumTxs   int
	Header   block.Header
	Verify   VerifyRequest
}

// TxEntry is one element of tx_fifo (see paper Figure 7: verification
// request, cc_id, num_ends, rdset_size, wrset_size).
type TxEntry struct {
	BlockNum  uint64
	Seq       int
	Verify    VerifyRequest
	CCName    string
	NumEnds   int
	RdsetSize int
	WrsetSize int
}

// EndsEntry is one element of ends_fifo.
type EndsEntry struct {
	BlockNum   uint64
	TxSeq      int
	EndorserID identity.EncodedID
	Verify     VerifyRequest
}

// ReadEntry is one element of rdset_fifo.
type ReadEntry struct {
	BlockNum uint64
	TxSeq    int
	Read     block.KVRead
}

// WriteEntry is one element of wrset_fifo.
type WriteEntry struct {
	BlockNum uint64
	TxSeq    int
	Write    block.KVWrite
}

// Buffers are the FIFO set between protocol_processor and block_processor.
type Buffers struct {
	Block *fifo.FIFO[BlockEntry]
	Tx    *fifo.FIFO[TxEntry]
	Ends  *fifo.FIFO[EndsEntry]
	Rdset *fifo.FIFO[ReadEntry]
	Wrset *fifo.FIFO[WriteEntry]
}

// NewBuffers allocates the FIFO set with hardware-realistic depths.
func NewBuffers() *Buffers {
	return &Buffers{
		Block: fifo.New[BlockEntry](8),
		Tx:    fifo.New[TxEntry](1024),
		Ends:  fifo.New[EndsEntry](4096),
		Rdset: fifo.New[ReadEntry](16384),
		Wrset: fifo.New[WriteEntry](16384),
	}
}

// Close closes every FIFO (end of stream).
func (b *Buffers) Close() {
	b.Block.Close()
	b.Tx.Close()
	b.Ends.Close()
	b.Rdset.Close()
	b.Wrset.Close()
}

// AssembledBlock is the reconstructed block the protocol_processor forwards
// to the host CPU (software side of the BMac peer), with the integrity
// verdict of the streamed data-hash check.
type AssembledBlock struct {
	Block      *block.Block
	DataHashOK bool
}

// ReceiverStats counts receiver activity.
type ReceiverStats struct {
	Packets      int
	Bytes        int64
	NonBMac      int
	BadPackets   int
	Blocks       int
	Transactions int
	CacheSyncs   int
}

// Receiver is the hardware-based protocol receiver (protocol_processor): it
// filters BMac packets, reconstructs sections via the identity cache,
// extracts and post-processes data fields, computes the stream hashes, and
// writes the block processor's FIFOs.
//
// Packets for a block may arrive with transaction sections out of order;
// the receiver reorders per block. The protocol itself has no retransmission
// (paper §5): lost packets stall the affected block, which tests inject and
// observe via PendingBlocks.
type Receiver struct {
	mu    sync.Mutex
	cache *identity.Cache
	bufs  *Buffers
	asm   map[uint64]*blockAsm // guarded by mu
	out   chan AssembledBlock
	stats ReceiverStats // guarded by mu
}

type blockAsm struct {
	header    *block.Header
	numTxs    int
	nextSeq   int
	pendingTx map[uint16]*Packet
	metadata  *Packet
	envelopes []block.Envelope
	hasher    fabcrypto.StreamHasher
}

// NewReceiver creates a receiver writing to bufs; assembled blocks for the
// host CPU are delivered on Blocks().
func NewReceiver(cache *identity.Cache, bufs *Buffers) *Receiver {
	return &Receiver{
		cache: cache,
		bufs:  bufs,
		asm:   make(map[uint64]*blockAsm),
		out:   make(chan AssembledBlock, 16),
	}
}

// Blocks returns the channel of reconstructed blocks (the CPU forwarding
// path in Figure 4b).
func (r *Receiver) Blocks() <-chan AssembledBlock { return r.out }

// Stats returns a copy of the receiver counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// PendingBlocks reports blocks with missing packets (used by loss tests).
func (r *Receiver) PendingBlocks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.asm)
}

// ProcessPacket handles one incoming datagram. Non-BMac packets return
// ErrNotBMac (the hardware forwards them to the CPU unmodified).
func (r *Receiver) ProcessPacket(data []byte) error {
	pkt, err := Decode(data)
	if err != nil {
		r.mu.Lock()
		if err == ErrNotBMac {
			r.stats.NonBMac++
		} else {
			r.stats.BadPackets++
		}
		r.mu.Unlock()
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Packets++
	r.stats.Bytes += int64(len(data))

	switch pkt.Type {
	case SectionCacheSync:
		r.stats.CacheSyncs++
		if err := r.cache.Put(identity.EncodedID(pkt.Seq), pkt.Payload); err != nil {
			r.stats.BadPackets++
			return fmt.Errorf("cache sync: %w", err)
		}
		return nil
	case SectionHeader:
		return r.processHeader(pkt)
	case SectionTx:
		return r.processTxOrQueue(pkt)
	case SectionMetadata:
		return r.processMetadata(pkt)
	default:
		r.stats.BadPackets++
		return fmt.Errorf("%w: unknown section type %d", ErrBadPacket, pkt.Type)
	}
}

// getAsm finds or creates the assembly state for a block. It
// must be called with r.mu held.
func (r *Receiver) getAsm(blockNum uint64, numTxs int) *blockAsm {
	a, ok := r.asm[blockNum]
	if !ok {
		a = &blockAsm{numTxs: numTxs, pendingTx: make(map[uint16]*Packet)}
		r.asm[blockNum] = a
	}
	return a
}

// processHeader handles a header section. It must be called with r.mu
// held (ProcessPacket holds it across the dispatch).
func (r *Receiver) processHeader(pkt *Packet) error {
	orig, err := insertIdentities(pkt.Payload, pkt.Locators, r.cache)
	if err != nil {
		r.stats.BadPackets++
		return err
	}
	hdrBytes := subField(orig, fHdrSecHeader)
	creator := subField(orig, fHdrSecCert)
	nonce := subField(orig, fHdrSecNonce)
	sig := subField(orig, fHdrSecSig)
	if hdrBytes == nil || creator == nil || sig == nil {
		r.stats.BadPackets++
		return fmt.Errorf("%w: incomplete header section", ErrBadPacket)
	}
	hdr, err := block.UnmarshalHeader(hdrBytes)
	if err != nil {
		r.stats.BadPackets++
		return err
	}

	entry := BlockEntry{
		BlockNum: pkt.BlockNum,
		NumTxs:   int(pkt.NumTxs),
		Header:   *hdr,
		Verify:   r.makeVerifyRequest(sig, creator, fabcrypto.Hash(block.OrdererSigningBytes(hdr, nonce, creator))),
	}

	a := r.getAsm(pkt.BlockNum, int(pkt.NumTxs))
	a.header = hdr
	a.numTxs = int(pkt.NumTxs)

	if err := r.bufs.Block.Push(entry); err != nil {
		return fmt.Errorf("block_fifo: %w", err)
	}
	r.stats.Blocks++
	return r.drain(pkt.BlockNum)
}

// makeVerifyRequest builds an ecdsa_engine request: DER decode the
// signature (DataProcessor post-processor), look the public key up in the
// identity cache (skipping X.509 parsing on the hot path), and attach the
// digest of the signed message (HashCalculator).
func (r *Receiver) makeVerifyRequest(derSig, cert []byte, digest [fabcrypto.HashSize]byte) VerifyRequest {
	var req VerifyRequest
	parts, err := fabcrypto.DecodeDERToParts(derSig)
	if err != nil {
		req.Malformed = true
		return req
	}
	req.Parts = parts
	if id, ok := r.cache.IDForCert(cert); ok {
		if pub, ok := r.cache.PublicKeyForID(id); ok {
			req.Pub = pub
		}
	}
	if req.Pub == nil {
		// Identity not in cache: fall back to the X.509 post-processor.
		pub, err := fabcrypto.PublicKeyFromCert(cert)
		if err != nil {
			req.Malformed = true
			return req
		}
		req.Pub = pub
	}
	req.Digest = digest
	return req
}

// processTxOrQueue handles a tx section, buffering out-of-order arrivals.
// It must be called with r.mu held.
func (r *Receiver) processTxOrQueue(pkt *Packet) error {
	a := r.getAsm(pkt.BlockNum, int(pkt.NumTxs))
	if int(pkt.Seq) != a.nextSeq {
		a.pendingTx[pkt.Seq] = pkt // out of order: hold
		return nil
	}
	if err := r.processTx(a, pkt); err != nil {
		return err
	}
	return r.drain(pkt.BlockNum)
}

// drain processes any buffered in-order tx sections and finalizes the block
// once every transaction and the metadata section have been handled. It
// must be called with r.mu held.
func (r *Receiver) drain(blockNum uint64) error {
	a, ok := r.asm[blockNum]
	if !ok {
		return nil
	}
	for {
		pkt, ok := a.pendingTx[uint16(a.nextSeq)]
		if !ok {
			break
		}
		delete(a.pendingTx, uint16(a.nextSeq))
		if err := r.processTx(a, pkt); err != nil {
			return err
		}
	}
	if a.header != nil && a.nextSeq == a.numTxs && a.metadata != nil {
		return r.finalize(blockNum, a)
	}
	return nil
}

// processTx handles one in-order tx section. It must be called with r.mu
// held.
func (r *Receiver) processTx(a *blockAsm, pkt *Packet) error {
	orig, err := insertIdentities(pkt.Payload, pkt.Locators, r.cache)
	if err != nil {
		r.stats.BadPackets++
		return err
	}
	x, err := extractTx(orig, pkt)
	if err != nil {
		r.stats.BadPackets++
		return err
	}

	// Stream hashes: block data hash accumulates the reconstructed
	// envelope bytes; the tx digest covers the signed payload.
	a.hasher.Write(orig)

	seq := int(pkt.Seq)
	for _, e := range x.Endorsements {
		id, _ := r.cache.IDForCert(e.Endorser)
		entry := EndsEntry{
			BlockNum:   pkt.BlockNum,
			TxSeq:      seq,
			EndorserID: id,
			Verify: r.makeVerifyRequest(e.Signature, e.Endorser,
				block.EndorsementDigest(x.PRPBytes, e.Endorser)),
		}
		if err := r.bufs.Ends.Push(entry); err != nil {
			return fmt.Errorf("ends_fifo: %w", err)
		}
	}
	for _, rd := range x.Reads {
		if err := r.bufs.Rdset.Push(ReadEntry{BlockNum: pkt.BlockNum, TxSeq: seq, Read: rd}); err != nil {
			return fmt.Errorf("rdset_fifo: %w", err)
		}
	}
	for _, w := range x.Writes {
		kw := block.KVWrite{Key: w.Key, Value: append([]byte(nil), w.Value...)}
		if err := r.bufs.Wrset.Push(WriteEntry{BlockNum: pkt.BlockNum, TxSeq: seq, Write: kw}); err != nil {
			return fmt.Errorf("wrset_fifo: %w", err)
		}
	}
	txEntry := TxEntry{
		BlockNum:  pkt.BlockNum,
		Seq:       seq,
		Verify:    r.makeVerifyRequest(x.Signature, x.CreatorCert, fabcrypto.Hash(x.PayloadBytes)),
		CCName:    x.CCName,
		NumEnds:   len(x.Endorsements),
		RdsetSize: len(x.Reads),
		WrsetSize: len(x.Writes),
	}
	if err := r.bufs.Tx.Push(txEntry); err != nil {
		return fmt.Errorf("tx_fifo: %w", err)
	}
	r.stats.Transactions++

	// Keep the envelope for CPU-side block reconstruction.
	env := block.Envelope{
		PayloadBytes: append([]byte(nil), x.PayloadBytes...),
		Signature:    append([]byte(nil), x.Signature...),
	}
	a.envelopes = append(a.envelopes, env)
	a.nextSeq++
	return nil
}

// processMetadata handles the metadata section. It must be called with
// r.mu held.
func (r *Receiver) processMetadata(pkt *Packet) error {
	a := r.getAsm(pkt.BlockNum, int(pkt.NumTxs))
	a.metadata = pkt
	return r.drain(pkt.BlockNum)
}

// finalize reconstructs the assembled block and hands it to the output
// channel. It must be called with r.mu held.
func (r *Receiver) finalize(blockNum uint64, a *blockAsm) error {
	delete(r.asm, blockNum)
	dataHash := a.hasher.Sum()
	ok := bytes.Equal(dataHash, a.header.DataHash)

	blk := &block.Block{
		Header:    *a.header,
		Envelopes: a.envelopes,
	}
	blk.Metadata.ValidationFlags = make([]byte, len(a.envelopes))

	select {
	case r.out <- AssembledBlock{Block: blk, DataHashOK: ok}:
	default:
		// CPU not draining; block until it does (backpressure). The lock
		// is dropped for the blocking send and retaken before returning
		// to the locked caller — no lock is nested inside another here.
		r.mu.Unlock()
		r.out <- AssembledBlock{Block: blk, DataHashOK: ok}
		r.mu.Lock() // bmaclint:allow lockorder (reacquire after release above, never nested)
	}
	return nil
}

// Close closes the assembled-block channel; call once no more packets will
// be processed.
func (r *Receiver) Close() {
	close(r.out)
}
