package resolver

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// UDPServer runs an Engine over a real UDP socket (cmd/resolvd and the
// livewire example). It implements Transport for the engine.
//
// The engine addresses peers by IP only (inside the simulator every
// host has a unique address); on real sockets the server therefore
// keeps a route table for upstream ports and remembers the last source
// port per client IP. Multiple concurrent clients behind one IP would
// collide — acceptable for a research daemon, and documented.
type UDPServer struct {
	conn *net.UDPConn

	mu          sync.Mutex
	routes      map[netip.Addr]uint16 // upstream address -> port
	clientPorts map[netip.Addr]uint16 // last seen source port per IP
	defaultPort uint16
	closed      bool
	wg          sync.WaitGroup
}

// maxClientPorts bounds the last-seen-port table; see Serve.
const maxClientPorts = 65536

// NewUDPServer binds addr (e.g. "127.0.0.1:5301").
func NewUDPServer(addr string) (*UDPServer, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolver: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("resolver: listen: %w", err)
	}
	return &UDPServer{
		conn:        conn,
		routes:      make(map[netip.Addr]uint16),
		clientPorts: make(map[netip.Addr]uint16),
		defaultPort: 53,
	}, nil
}

// Addr returns the bound address.
func (s *UDPServer) Addr() net.Addr { return s.conn.LocalAddr() }

// Route registers the UDP port for an upstream server address.
func (s *UDPServer) Route(addr netip.Addr, port uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[addr] = port
}

// Send implements Transport: it resolves the destination port from the
// route table, then from remembered client ports, then port 53. The
// write is synchronous, so payload is not retained.
func (s *UDPServer) Send(dst netip.Addr, payload []byte) {
	s.mu.Lock()
	port, ok := s.routes[dst]
	if !ok {
		port, ok = s.clientPorts[dst]
	}
	if !ok {
		port = s.defaultPort
	}
	s.mu.Unlock()
	s.conn.WriteToUDP(payload, &net.UDPAddr{IP: dst.AsSlice(), Port: int(port)})
}

// Serve pumps received packets into the engine until Close. It returns
// after the read loop exits.
func (s *UDPServer) Serve(e *Engine) {
	s.wg.Add(1)
	defer s.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, raddr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		src, ok := netip.AddrFromSlice(raddr.IP)
		if !ok {
			continue
		}
		src = src.Unmap()
		s.mu.Lock()
		if _, isUpstream := s.routes[src]; !isUpstream {
			// Bound the table: a wide (or spoofed) client population
			// must not grow memory forever. Dropping old entries only
			// costs those clients a reply until they query again.
			if len(s.clientPorts) >= maxClientPorts {
				s.clientPorts = make(map[netip.Addr]uint16, maxClientPorts/4)
			}
			s.clientPorts[src] = uint16(raddr.Port)
		}
		s.mu.Unlock()
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		e.HandlePacket(src, pkt)
	}
}

// Close stops the server and waits for Serve to return.
func (s *UDPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	s.wg.Wait()
	return err
}
