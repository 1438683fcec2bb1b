package delivery

import (
	"fmt"
	"net"
	"time"

	"bmac/internal/bmacproto"
	"bmac/internal/gossip"
)

// GossipTransport delivers blocks over the Gossip wire format (framed
// marshaled blocks on a TCP stream) — the software-peer half of the
// paper's dual delivery path.
type GossipTransport struct {
	conn net.Conn
	// WriteTimeout bounds each frame write so a wedged peer cannot pin
	// its writer goroutine forever (default 10s).
	WriteTimeout time.Duration
}

// DialGossip connects to a gossip listener.
func DialGossip(addr string) (*GossipTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("delivery dial %q: %w", addr, err)
	}
	return &GossipTransport{conn: conn, WriteTimeout: 10 * time.Second}, nil
}

// GossipDialer returns a Dial function for PeerOptions, enabling
// reconnect + catch-up for the peer at addr.
func GossipDialer(addr string) func() (Transport, error) {
	return func() (Transport, error) { return DialGossip(addr) }
}

// Send implements Transport.
func (t *GossipTransport) Send(it *Item) (int, error) {
	if t.WriteTimeout > 0 {
		if err := t.conn.SetWriteDeadline(time.Now().Add(t.WriteTimeout)); err != nil {
			return 0, err
		}
	}
	return gossip.WriteRaw(t.conn, it.Marshaled())
}

// Close implements Transport.
func (t *GossipTransport) Close() error { return t.conn.Close() }

// BMacTransport delivers blocks through the BMac protocol sender — the
// hardware-peer half of the dual delivery path. The sender's identity
// cache must already be in sync with the receiving peer.
type BMacTransport struct {
	sender *bmacproto.Sender
}

// NewBMacTransport wraps a protocol sender.
func NewBMacTransport(s *bmacproto.Sender) *BMacTransport {
	return &BMacTransport{sender: s}
}

// Send implements Transport.
func (t *BMacTransport) Send(it *Item) (int, error) {
	stats, err := t.sender.SendBlock(it.Block)
	return stats.Bytes, err
}

// Close implements Transport. The sender's sink is owned by its creator.
func (t *BMacTransport) Close() error { return nil }

// Slowed wraps a transport with a fixed per-block delay — the
// artificially slow peer of the cluster experiment's isolation check.
func Slowed(tr Transport, delay time.Duration) Transport {
	return &slowed{tr: tr, delay: delay}
}

type slowed struct {
	tr    Transport
	delay time.Duration
}

func (s *slowed) Send(it *Item) (int, error) {
	time.Sleep(s.delay)
	return s.tr.Send(it)
}

func (s *slowed) Close() error { return s.tr.Close() }
