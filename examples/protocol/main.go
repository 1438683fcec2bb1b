// Protocol: a tour of the BMac wire protocol (paper §3.2) over real UDP
// loopback. The example builds a block, shows how DataRemover strips the
// repeated identity certificates (the 3.4-5.3x bandwidth saving of Figure
// 9a), streams the self-contained packets to a hardware-style receiver,
// and demonstrates that a lost packet stalls only its own block until the
// packet is redelivered.
//
// This example reaches below the public façade into the protocol layer
// itself; the quickstart/banking/drm examples show the high-level API.
package main

import (
	"fmt"
	"log"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/identity"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 2-org network: client, orderer, two endorser peers.
	net := identity.NewNetwork([]byte("protocol example"))
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := net.AddOrg(org); err != nil {
			return err
		}
	}
	client, err := net.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		return err
	}
	ordID, err := net.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		return err
	}
	p1, err := net.NewIdentity("Org1", identity.RolePeer)
	if err != nil {
		return err
	}
	p2, err := net.NewIdentity("Org2", identity.RolePeer)
	if err != nil {
		return err
	}

	// A 50-transaction block with 2 endorsements per transaction.
	envs := make([]block.Envelope, 0, 50)
	for i := 0; i < 50; i++ {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator:   client,
			Chaincode: "smallbank",
			Channel:   "ch1",
			RWSet: block.RWSet{
				Writes: []block.KVWrite{{Key: fmt.Sprintf("k%d", i), Value: []byte("v")}},
			},
			Endorsers: []*identity.Identity{p1, p2},
		})
		if err != nil {
			return err
		}
		envs = append(envs, *env)
	}
	blk, err := block.NewBlock(0, nil, envs, ordID)
	if err != nil {
		return err
	}

	// Hardware-style receiver behind a real UDP socket.
	cache := identity.NewCache()
	bufs := bmacproto.NewBuffers()
	recv := bmacproto.NewReceiver(cache, bufs)
	listener, err := bmacproto.ListenUDP("127.0.0.1:0", recv)
	if err != nil {
		return err
	}
	defer listener.Close()
	// bmaclint:allow goroleak (drain exits when the receiver's FIFOs are closed)
	go drain(bufs) // a stand-in for the block processor

	sink, err := bmacproto.DialUDP(listener.Addr())
	if err != nil {
		return err
	}
	defer sink.Close()
	sender := bmacproto.NewSender(identity.NewCache(), sink)
	if err := sender.RegisterNetwork(net); err != nil {
		return err
	}

	// 1. Bandwidth: gossip vs BMac protocol.
	gossipBytes := len(block.Marshal(blk))
	packets, stats, err := sender.EncodeBlock(blk)
	if err != nil {
		return err
	}
	fmt.Printf("block with %d txs, 2 endorsements each:\n", len(envs))
	fmt.Printf("  gossip (marshaled protobuf): %6.1f KB\n", float64(gossipBytes)/1024)
	fmt.Printf("  bmac protocol (%3d packets): %6.1f KB  (%.1fx smaller, %d KB of identities removed)\n",
		stats.Packets, float64(stats.Bytes)/1024,
		float64(gossipBytes)/float64(stats.Bytes), stats.Removed/1024)

	// 2. Stream over UDP; the receiver reconstructs and verifies.
	if _, err := sender.SendBlock(blk); err != nil {
		return err
	}
	assembled := <-recv.Blocks()
	fmt.Printf("\nreceived block %d over UDP: %d envelopes, data hash ok: %v\n",
		assembled.Block.Header.Number, len(assembled.Block.Envelopes), assembled.DataHashOK)

	// 3. Loss: drop one tx packet of block 1; the block stalls, then
	//    resending it by hand completes it (the protocol has no retransmission).
	blk.Header.Number = 1
	packets, _, err = sender.EncodeBlock(blk)
	if err != nil {
		return err
	}
	lost := packets[10]
	for i, p := range packets {
		if i == 10 {
			continue // drop tx section 9
		}
		if err := sink.SendPacket(p); err != nil {
			return err
		}
	}
	awaitPending(recv, 1)
	fmt.Printf("\ndropped one tx packet: block 1 stalled (%d partial block in reassembly)\n",
		recv.PendingBlocks())
	if err := sink.SendPacket(lost); err != nil {
		return err
	}
	assembled = <-recv.Blocks()
	fmt.Printf("retransmitted it: block %d completed, data hash ok: %v\n",
		assembled.Block.Header.Number, assembled.DataHashOK)
	return nil
}

// drain consumes the block-processor FIFOs so the receiver never blocks.
func drain(bufs *bmacproto.Buffers) {
	go func() { // bmaclint:allow goroleak (Pop reports !ok once the FIFO is closed and drained)
		for {
			if _, ok := bufs.Block.Pop(); !ok {
				return
			}
		}
	}()
	go func() { // bmaclint:allow goroleak (Pop reports !ok once the FIFO is closed and drained)
		for {
			if _, ok := bufs.Ends.Pop(); !ok {
				return
			}
		}
	}()
	go func() { // bmaclint:allow goroleak (Pop reports !ok once the FIFO is closed and drained)
		for {
			if _, ok := bufs.Rdset.Pop(); !ok {
				return
			}
		}
	}()
	go func() { // bmaclint:allow goroleak (Pop reports !ok once the FIFO is closed and drained)
		for {
			if _, ok := bufs.Wrset.Pop(); !ok {
				return
			}
		}
	}()
	for {
		if _, ok := bufs.Tx.Pop(); !ok {
			return
		}
	}
}

// awaitPending spins until the receiver reports n stalled blocks.
func awaitPending(recv *bmacproto.Receiver, n int) {
	for recv.PendingBlocks() < n {
	}
}
