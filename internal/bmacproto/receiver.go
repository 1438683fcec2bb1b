package bmacproto

import (
	"bytes"
	"crypto/ecdsa"
	"fmt"
	"sync"
	"unsafe"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/fifo"
	"bmac/internal/identity"
	"bmac/internal/wire"
)

// VerifyRequest is the {signature, key, data hash} tuple issued to one
// ecdsa_engine instance (paper §3.3).
type VerifyRequest struct {
	Parts fabcrypto.SignatureParts
	// Pub is the signer's key, nil when its certificate does not parse.
	Pub    *ecdsa.PublicKey
	Digest [fabcrypto.HashSize]byte
	// Malformed is set when the signature does not decode (bad DER); the
	// engine rejects it, or a request without a key, without computing.
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
	b.Reset()
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
// request, cc_id, num_ends, rdset_size, wrset_size). CCName is lent from the
// envelope (see lend).
type TxEntry struct {
	BlockNum  uint64
	Seq       int
	Verify    VerifyRequest
	CCName    string
	NumEnds   int
	RdsetSize int
	WrsetSize int
	// Malformed is set when the envelope's payload does not decode
	// (block.NewTxView rejects it): the entry carries no request, and no
	// ends, reads or writes follow it.
	Malformed bool
}

// EndsEntry is one element of ends_fifo.
type EndsEntry struct {
	BlockNum   uint64
	TxSeq      int
	EndorserID identity.EncodedID
	Verify     VerifyRequest
}

// ReadEntry is one element of rdset_fifo. Its key is lent from the envelope
// (see lend).
type ReadEntry struct {
	BlockNum uint64
	TxSeq    int
	Read     block.KVRead
}

// WriteEntry is one element of wrset_fifo. Its key is lent from the envelope
// and its value aliases it: a store that keeps them copies them, as
// statedb.HardwareKVS.Write does.
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
// verdict of the streamed data-hash check. Its envelopes, and every key,
// value and chaincode name the receiver lent to the FIFOs for them, alias
// the block's memory, which the host hands back with Release.
type AssembledBlock struct {
	Block      *block.Block
	DataHashOK bool
	mem        [][]byte // wire.GetBuf chunks
}

// ReleaseHook, when set, sees every chunk Release hands back before the
// pool does: tests overwrite them, so a read past the release point shows
// as wrong bytes. Set it only while no receiver runs.
var ReleaseHook func(chunk []byte)

// Release hands the block's memory back to the wire pool. The host calls it
// once nothing reads the block's envelopes or the FIFO entries lent from
// them: the BMac peer does once Ledger.Commit has returned, by when core
// has popped and decided every FIFO entry of the block and the state
// database has copied every key and value it keeps. A block never released
// is left to the garbage collector.
func (ab *AssembledBlock) Release() {
	for _, c := range ab.mem {
		if ReleaseHook != nil {
			ReleaseHook(c)
		}
		wire.PutBuf(c)
	}
	ab.mem = nil
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
// Each tx section is rebuilt into the block's memory (wire.GetBuf chunks),
// which goes to the host with the AssembledBlock and back to the pool at
// AssembledBlock.Release.
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
	pkt   Packet        // guarded by mu; the packet being processed, decoded in place
}

type blockAsm struct {
	header    *block.Header
	numTxs    int
	nextSeq   int
	pendingTx map[uint16]*Packet // out-of-order tx sections, copied out of their datagrams
	metadata  bool
	envelopes []block.Envelope
	hasher    fabcrypto.StreamHasher
	mem       [][]byte // the rebuilt tx sections: wire.GetBuf chunks, the last with room to spare
}

// chunkBytes is the least size of a chunk of block memory.
const chunkBytes = 64 << 10

// rebuild appends the section pkt carries, its identities reinserted, to the
// block's memory and returns it, capped at its own length.
func (a *blockAsm) rebuild(pkt *Packet, cache *identity.Cache) ([]byte, error) {
	n, err := insertedLen(pkt.Payload, pkt.Locators, cache)
	if err != nil {
		return nil, err
	}
	if k := len(a.mem); k == 0 || cap(a.mem[k-1])-len(a.mem[k-1]) < n {
		a.mem = append(a.mem, wire.GetBuf(max(n, chunkBytes)))
	}
	cur := &a.mem[len(a.mem)-1]
	out, err := insertIdentities(*cur, pkt.Payload, pkt.Locators, cache)
	if err != nil {
		return nil, err
	}
	sec := out[len(*cur):len(out):len(out)]
	*cur = out
	return sec, nil
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
// ErrNotBMac (the hardware forwards them to the CPU unmodified). It keeps
// nothing of data once it returns, so a transport may reuse the buffer.
func (r *Receiver) ProcessPacket(data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	pkt := &r.pkt
	if err := pkt.decode(data); err != nil {
		if err == ErrNotBMac {
			r.stats.NonBMac++
		} else {
			r.stats.BadPackets++
		}
		return err
	}
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
		a = &blockAsm{numTxs: numTxs, envelopes: make([]block.Envelope, 0, numTxs)}
		r.asm[blockNum] = a
	}
	return a
}

// subField returns the payload of the first length-delimited field num in
// msg, or nil. It reads the protocol's own header section.
func subField(msg []byte, num int) []byte {
	off, l, ok := wire.FieldOffset(msg, num)
	if !ok {
		return nil
	}
	return msg[off : off+l]
}

// processHeader handles a header section. It must be called with r.mu
// held (ProcessPacket holds it across the dispatch).
func (r *Receiver) processHeader(pkt *Packet) error {
	orig, err := insertIdentities(nil, pkt.Payload, pkt.Locators, r.cache)
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
	}
	entry.Verify, _ = r.makeVerifyRequest(sig, creator, fabcrypto.Hash(block.OrdererSigningBytes(hdr, nonce, creator)))

	a := r.getAsm(pkt.BlockNum, int(pkt.NumTxs))
	a.header = hdr
	a.numTxs = int(pkt.NumTxs)

	if err := r.bufs.Block.Push(entry); err != nil {
		return fmt.Errorf("block_fifo: %w", err)
	}
	r.stats.Blocks++
	return r.drain(pkt.BlockNum)
}

// makeVerifyRequest builds an ecdsa_engine request and returns it with the
// signer's member ID (0: no member holds the certificate). It resolves the
// signer's certificate in one identity-cache lookup, which hands out the key
// parsed when the member was cached (the X.509 post-processor parses a
// certificate no member holds), then DER decodes the signature
// (DataProcessor post-processor) and attaches the digest of the signed
// message (HashCalculator). A certificate that does not parse leaves Pub
// nil, a signature that does not decode sets Malformed.
func (r *Receiver) makeVerifyRequest(derSig, cert []byte, digest [fabcrypto.HashSize]byte) (VerifyRequest, identity.EncodedID) {
	req := VerifyRequest{Digest: digest}
	id, pub, err := r.cache.Resolve(cert)
	if err != nil {
		return req, id
	}
	req.Pub = pub
	if req.Parts, err = fabcrypto.DecodeDERToParts(derSig); err != nil {
		req.Malformed = true
	}
	return req, id
}

// processTxOrQueue handles a tx section, buffering out-of-order arrivals.
// It must be called with r.mu held.
func (r *Receiver) processTxOrQueue(pkt *Packet) error {
	a := r.getAsm(pkt.BlockNum, int(pkt.NumTxs))
	if int(pkt.Seq) != a.nextSeq { // out of order: hold a copy
		if a.pendingTx == nil {
			a.pendingTx = make(map[uint16]*Packet)
		}
		a.pendingTx[pkt.Seq] = pkt.clone()
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
	if a.header != nil && a.nextSeq == a.numTxs && a.metadata {
		return r.finalize(blockNum, a)
	}
	return nil
}

// processTx handles one in-order tx section: it rebuilds the envelope,
// streams it into the data hash, keeps it for the host and writes the
// FIFOs from a block.TxView of its payload. The envelope's payload and
// signature are what block.DecodeEnvelope reads in the rebuilt bytes, the
// bytes the data hash covers; the packet's pointer annotations are for the
// hardware's DataExtractor and are never read here. The kept envelope, the
// FIFO keys and the write values alias the block's memory it was rebuilt
// in. An envelope whose bytes or payload do not decode invalidates only
// itself: its entry is marked Malformed (an envelope whose bytes do not
// decode is kept empty). It must be called with r.mu held.
func (r *Receiver) processTx(a *blockAsm, pkt *Packet) error {
	orig, err := a.rebuild(pkt, r.cache)
	if err != nil {
		r.stats.BadPackets++
		return err
	}
	a.hasher.Write(orig)
	env, err := block.DecodeEnvelope(orig)
	a.envelopes = append(a.envelopes, env)
	a.nextSeq++
	r.stats.Transactions++

	// The tx entry goes first: block_validate pops it, then the entries it
	// counts, so no FIFO's depth bounds a transaction's endorsements, reads
	// or writes.
	entry := TxEntry{BlockNum: pkt.BlockNum, Seq: int(pkt.Seq)}
	var v block.TxView
	if err == nil {
		v, err = block.NewTxView(env.PayloadBytes)
	}
	if err != nil {
		entry.Malformed = true
	} else {
		entry.Verify, _ = r.makeVerifyRequest(env.Signature, v.Creator(), fabcrypto.Hash(env.PayloadBytes))
		entry.CCName = lend(v.ChaincodeName())
		entry.NumEnds, entry.RdsetSize, entry.WrsetSize = v.NumEndorsements(), v.NumReads(), v.NumWrites()
	}
	if err := r.bufs.Tx.Push(entry); err != nil {
		return fmt.Errorf("tx_fifo: %w", err)
	}
	if entry.Malformed {
		return nil
	}
	return r.pushSets(&v, entry)
}

// pushSets writes a transaction's endorsements, reads and writes to the
// ends, rdset and wrset FIFOs, after its tx entry.
func (r *Receiver) pushSets(v *block.TxView, tx TxEntry) error {
	for e := range v.Endorsements() {
		entry := EndsEntry{BlockNum: tx.BlockNum, TxSeq: tx.Seq}
		entry.Verify, entry.EndorserID = r.makeVerifyRequest(e.Signature, e.Endorser,
			block.EndorsementDigest(v.ProposalResponseBytes(), e.Endorser))
		if err := r.bufs.Ends.Push(entry); err != nil {
			return fmt.Errorf("ends_fifo: %w", err)
		}
	}
	for key, ver := range v.Reads() {
		rd := block.KVRead{Key: lend(key), Version: ver}
		if err := r.bufs.Rdset.Push(ReadEntry{BlockNum: tx.BlockNum, TxSeq: tx.Seq, Read: rd}); err != nil {
			return fmt.Errorf("rdset_fifo: %w", err)
		}
	}
	for key, val := range v.Writes() {
		w := block.KVWrite{Key: lend(key), Value: val}
		if err := r.bufs.Wrset.Push(WriteEntry{BlockNum: tx.BlockNum, TxSeq: tx.Seq, Write: w}); err != nil {
			return fmt.Errorf("wrset_fifo: %w", err)
		}
	}
	return nil
}

// lend returns b's bytes as a string without copying them. The string
// aliases the envelope the receiver rebuilt in the block's memory, which
// nothing writes to until AssembledBlock.Release; whoever stores such a
// string beyond the block's commit copies it first.
func lend(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// processMetadata handles the metadata section. It must be called with
// r.mu held.
func (r *Receiver) processMetadata(pkt *Packet) error {
	a := r.getAsm(pkt.BlockNum, int(pkt.NumTxs))
	a.metadata = true
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

	// The hand-off: the block's pooled memory leaves the receiver with ab,
	// and the host owns it until Release after its commit (the release
	// point wire/pool.go names). aliasguard's escape rule tracks decodes of
	// a GetBuf buffer inside one function; these chunks are filled by
	// appending, in rebuild, so it sees no escape here to allow.
	ab := AssembledBlock{Block: blk, DataHashOK: ok, mem: a.mem}
	select {
	case r.out <- ab:
	default:
		// CPU not draining; block until it does (backpressure). The lock
		// is dropped for the blocking send and retaken before returning
		// to the locked caller — no lock is nested inside another here.
		r.mu.Unlock()
		r.out <- ab
		r.mu.Lock() // bmaclint:allow lockorder (reacquire after release above, never nested)
	}
	return nil
}

// Close closes the assembled-block channel; call once no more packets will
// be processed.
func (r *Receiver) Close() {
	close(r.out)
}
