package bmacproto

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// This file provides the two packet transports used by the repository:
//
//   - UDPSink/UDPListener: real self-contained UDP datagrams on a socket,
//     as the deployed protocol uses (the FPGA filters on the UDP port).
//
//   - MemLink: an in-process link with a configurable bandwidth/latency
//     model, used by the deterministic protocol benchmarks (Figure 9).

// UDPSink sends packets to a UDP destination.
type UDPSink struct {
	conn *net.UDPConn
}

// DialUDP connects a sink to addr (e.g. "127.0.0.1:9309").
func DialUDP(addr string) (*UDPSink, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("dial udp %q: %w", addr, err)
	}
	return &UDPSink{conn: conn}, nil
}

var _ PacketSink = (*UDPSink)(nil)

// SendPacket implements PacketSink.
func (u *UDPSink) SendPacket(p []byte) error {
	if _, err := u.conn.Write(p); err != nil {
		return fmt.Errorf("udp send: %w", err)
	}
	return nil
}

// Close closes the socket.
func (u *UDPSink) Close() error { return u.conn.Close() }

// UDPListener receives packets on a UDP socket and feeds a Receiver,
// standing in for the FPGA's Ethernet interface.
type UDPListener struct {
	conn *net.UDPConn
	recv *Receiver

	stop chan struct{}
	done chan struct{}
}

// ListenUDP binds addr (use "127.0.0.1:0" for an ephemeral port) and starts
// the receive loop.
func ListenUDP(addr string, recv *Receiver) (*UDPListener, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("listen udp %q: %w", addr, err)
	}
	l := &UDPListener{
		conn: conn,
		recv: recv,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go l.loop()
	return l, nil
}

// Addr returns the bound address.
func (l *UDPListener) Addr() string { return l.conn.LocalAddr().String() }

func (l *UDPListener) loop() {
	defer close(l.done)
	buf := make([]byte, 1<<17)
	for {
		n, _, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-l.stop:
				return
			default:
				if errors.Is(err, net.ErrClosed) {
					return
				}
				continue
			}
		}
		// Errors are counted in receiver stats; a lossy datagram
		// transport cannot propagate them to the sender anyway. The
		// receiver keeps nothing of buf, so the next read may reuse it.
		_ = l.recv.ProcessPacket(buf[:n]) // bmaclint:allow errdiscard (lossy transport: errors land in receiver stats)
	}
}

// Close stops the receive loop and closes the socket.
func (l *UDPListener) Close() error {
	close(l.stop)
	err := l.conn.Close()
	<-l.done
	return err
}

// MemLink is an in-process packet link with optional loss injection. It
// preserves ordering, like a single switch hop in a datacenter.
type MemLink struct {
	mu      sync.Mutex
	recv    *Receiver
	dropped int // guarded by mu
	sent    int // guarded by mu
	// DropEvery drops every Nth packet when > 0 (loss injection).
	DropEvery int
}

// NewMemLink connects a sender to a receiver in-process.
func NewMemLink(recv *Receiver) *MemLink {
	return &MemLink{recv: recv}
}

var _ PacketSink = (*MemLink)(nil)

// SendPacket implements PacketSink: the packet is delivered synchronously.
func (m *MemLink) SendPacket(p []byte) error {
	m.mu.Lock()
	m.sent++
	drop := m.DropEvery > 0 && m.sent%m.DropEvery == 0
	if drop {
		m.dropped++
	}
	m.mu.Unlock()
	if drop {
		return nil
	}
	err := m.recv.ProcessPacket(p)
	if err != nil && !errors.Is(err, ErrNotBMac) {
		return err
	}
	return nil
}

// Dropped reports the number of packets dropped by loss injection.
func (m *MemLink) Dropped() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}
