package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"ritw/internal/geo"
	"ritw/internal/obs"
)

// PacketHandler receives a datagram delivered to a host. src is the
// address replies should go to; for packets that arrived through an
// anycast service, dst is the anycast address the sender used (so the
// host can answer from the right identity).
type PacketHandler func(src, dst netip.Addr, payload []byte)

// Host is a simulated machine with an address and a location.
type Host struct {
	Addr netip.Addr
	Loc  geo.Coord
	// LastMileMs is extra access-network RTT charged on every path to
	// or from this host (zero for datacenter hosts).
	LastMileMs float64
	// LossRate is this host's extra packet-loss probability, applied
	// on top of the network-wide rate in both directions.
	LossRate float64
	// Down marks a failed host: packets to it vanish.
	Down bool

	// id is the host's dense registration index (see Network: dense
	// interning). All per-pair state is keyed by id pairs, never by
	// address, so the hot path does integer map lookups only.
	id      int32
	handler PacketHandler
	net     *Network
}

// ID returns the host's dense id: its registration index on the
// network, assigned once at AddHost time. Stable for the lifetime of
// the network, suitable as an index into caller-side flat tables.
func (h *Host) ID() int32 { return h.id }

// Handle installs the host's datagram handler.
func (h *Host) Handle(fn PacketHandler) { h.handler = fn }

// Send transmits payload from this host to dst after the simulated
// one-way delay; dst may be a unicast host or an anycast service
// address. Lost packets are silently dropped, like UDP. Send (like
// SendAs and SendSpoofed) copies payload and does not retain it after
// it returns, so callers may reuse one packing buffer for every send.
func (h *Host) Send(dst netip.Addr, payload []byte) {
	h.net.send(h, h.Addr, dst, payload)
}

// SendAs transmits like Send but with src as the packet's source
// address. This is how an anycast member answers from the service
// identity it was queried on — without it, a resolver's off-path
// protection would discard the reply. src must be the host's own
// address or an anycast service the host belongs to; other values
// panic, because spoofing is a configuration error in experiments.
func (h *Host) SendAs(src, dst netip.Addr, payload []byte) {
	if src != h.Addr && !h.net.isMember(h, src) {
		panic(fmt.Sprintf("netsim: host %s cannot send as %s", h.Addr, src))
	}
	h.net.send(h, src, dst, payload)
}

// SendSpoofed transmits with an arbitrary forged source address — the
// deliberate escape hatch from SendAs's configuration check, for
// modeling spoofed-source reflection attacks (BCP 38 does not exist
// here). Packet fate (loss, delay, catchment) is keyed on the sending
// and receiving hosts exactly like Send, so a spoofed source never
// perturbs a randomness stream; only the receiver's view of "who sent
// this" changes.
func (h *Host) SendSpoofed(src, dst netip.Addr, payload []byte) {
	h.net.spoofed.Inc()
	h.net.send(h, src, dst, payload)
}

// slabRef is one entry of the address slab: the pool offset of an
// address resolves to the host registered there, the anycast service
// registered there (svc = service id + 1; 0 = none), or neither.
type slabRef struct {
	h   *Host
	svc int32
}

// Network glues hosts together with a latency model. All methods must
// be called from the simulator goroutine (or before Run starts).
//
// Dense interning (DESIGN.md §8.5): every host and every anycast
// service gets a dense int32 id at registration, and addresses inside
// the simulator's 10.x allocation pool resolve to ids through a flat
// slab indexed by pool offset — no hashing on the per-packet path. All
// per-pair pinned state (stretch, catchment, keyed packet counters) is
// stored under packed id pairs. Ids are storage keys only: every keyed
// RNG stream is still derived from the *addresses* (keyed.go), so the
// interning layer cannot change a single random draw — a run's outputs
// are byte-identical to the map-keyed implementation it replaced.
type Network struct {
	Sim   *Simulator
	Model geo.PathModel
	// LossRate is the network-wide per-packet loss probability.
	LossRate float64
	// BGPNoise is the probability that an anycast catchment decision
	// picks a suboptimal site, modelling the real-world mismatch
	// between BGP proximity and geographic proximity.
	BGPNoise float64

	rng *rand.Rand
	// slab resolves pool addresses (poolBase + offset) to hosts and
	// services; hostExtra/svcExtra catch addresses outside the pool
	// (explicit experiment addresses, IPv6).
	slab      []slabRef
	hostExtra map[netip.Addr]*Host
	svcExtra  map[netip.Addr]int32
	// hosts is the dense id -> host table; svcAddrs/svcMembers the
	// id -> service tables.
	hosts      []*Host
	svcAddrs   []netip.Addr
	svcMembers [][]*Host
	// stretch and catch pin per-pair path stretch and per-(host,
	// service) catchment under packed id pairs.
	stretch  map[uint64]float64
	catch    map[uint64]*Host
	nextIPv4 uint32
	faults   FaultModel

	// Keyed-randomness mode (see keyed.go): when enabled, per-packet
	// and per-pair decisions derive from stable keys instead of the
	// sequential rng, making outcomes independent of event interleaving
	// across unrelated hosts — the invariant sharded runs rely on.
	keyed     bool
	keyedSeed uint64
	kr        *keyedRand
	pairCtr   map[uint64]uint64

	sent       *obs.Counter
	dropped    *obs.Counter
	faultDrops *obs.Counter
	spoofed    *obs.Counter
}

// FaultModel is consulted on every packet after routing and the static
// loss checks. Drop removes the packet outright; Shape may inflate the
// one-way delay of a surviving packet. src and dst are the concrete
// endpoint addresses (anycast already resolved to the catchment
// member), and now is the simulator's virtual clock. Implementations
// must be deterministic given the packet sequence — netsim calls them
// from the single simulator goroutine in event order.
type FaultModel interface {
	Drop(src, dst netip.Addr, now time.Duration) bool
	Shape(src, dst netip.Addr, now, oneWay time.Duration) time.Duration
}

// SetFaults installs fm as the network's fault model (nil removes it).
// The model's decisions are layered on top of Host.Down and the static
// loss rates, which keep their existing RNG draws, so installing a
// model that never drops or shapes leaves a seeded run byte-identical.
func (n *Network) SetFaults(fm FaultModel) { n.faults = fm }

// SetMetrics counts sends and drops (netsim_packets_sent_total /
// netsim_packets_dropped_total) in r, and wires the simulator's event
// counter too. Purely observational: the RNG stream and event order
// are untouched, so seeded runs stay deterministic.
func (n *Network) SetMetrics(r *obs.Registry) {
	n.sent = r.Counter("netsim_packets_sent_total")
	n.dropped = r.Counter("netsim_packets_dropped_total")
	n.faultDrops = r.Counter("netsim_fault_drops_total")
	n.spoofed = r.Counter("attacks_spoofed_packets_total")
	n.Sim.SetMetrics(r)
}

// DefaultBGPNoise is the default probability that an anycast catchment
// decision picks a suboptimal site. Exported so experiment planners
// that pre-compute catchments (KeyedCatchmentPick) use the exact value
// the network would.
const DefaultBGPNoise = 0.15

const (
	// poolBase is the first address of the automatic allocation pool
	// (10.0.0.1); poolSlots caps the slab at the rest of 10/8.
	poolBase  = 0x0A000001
	poolSlots = 1 << 24
	// slabSlack bounds how far past the dense auto-allocated range an
	// explicit registration may grow the flat slab. Without it a single
	// AddHostAddr high in the pool (say 10.255.0.1) allocates a ~16M-
	// entry slab for one live entry; past the slack the address goes to
	// the extra maps instead, keeping slab size proportional to real
	// density.
	slabSlack = 4096
)

// poolIndex returns addr's slab offset when it lies in the allocation
// pool.
func poolIndex(addr netip.Addr) (int, bool) {
	if !addr.Is4() {
		return 0, false
	}
	b := addr.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	if v < poolBase || v-poolBase >= poolSlots {
		return 0, false
	}
	return int(v - poolBase), true
}

// NewNetwork creates a network on sim with the given path model and a
// seeded RNG for all stochastic decisions.
func NewNetwork(sim *Simulator, model geo.PathModel, seed int64) *Network {
	return &Network{
		Sim:       sim,
		Model:     model,
		BGPNoise:  DefaultBGPNoise,
		rng:       rand.New(rand.NewSource(seed)),
		hostExtra: make(map[netip.Addr]*Host),
		svcExtra:  make(map[netip.Addr]int32),
		stretch:   make(map[uint64]float64),
		catch:     make(map[uint64]*Host),
		nextIPv4:  poolBase,
	}
}

// RNG exposes the network's random source so colocated models (probe
// placement, resolver assignment) can share the deterministic stream.
func (n *Network) RNG() *rand.Rand { return n.rng }

// lookupHost resolves addr to its registered host, or nil. Pool
// addresses normally hit the slab; the map fallback catches sparse
// pool addresses parked in hostExtra by the slabSlack guard (and costs
// only unroutable packets an extra probe).
func (n *Network) lookupHost(addr netip.Addr) *Host {
	if i, ok := poolIndex(addr); ok && i < len(n.slab) {
		if h := n.slab[i].h; h != nil {
			return h
		}
	}
	return n.hostExtra[addr]
}

// serviceID resolves addr to its anycast service id.
func (n *Network) serviceID(addr netip.Addr) (int32, bool) {
	if i, ok := poolIndex(addr); ok && i < len(n.slab) && n.slab[i].svc != 0 {
		return n.slab[i].svc - 1, true
	}
	id, ok := n.svcExtra[addr]
	return id, ok
}

// slabbable reports whether pool offset i belongs in the flat slab:
// already covered, or close enough to the allocator's watermark that
// growing to it keeps the slab dense. Far-flung explicit addresses go
// to the extra maps instead (see slabSlack).
func (n *Network) slabbable(i int) bool {
	return i < len(n.slab) || i <= int(n.nextIPv4-poolBase)+slabSlack
}

// slabAt grows the slab to cover offset i and returns a pointer to its
// entry. Only called for slabbable offsets.
func (n *Network) slabAt(i int) *slabRef {
	if i >= len(n.slab) {
		grown := make([]slabRef, i+1)
		copy(grown, n.slab)
		n.slab = grown
	}
	return &n.slab[i]
}

// AllocAddr returns a fresh unique address from the simulator's
// private pool.
func (n *Network) AllocAddr() netip.Addr {
	for {
		v := n.nextIPv4
		n.nextIPv4++
		addr := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
		if n.lookupHost(addr) != nil {
			continue
		}
		if _, taken := n.serviceID(addr); taken {
			continue
		}
		return addr
	}
}

// AddHost registers a host at loc with an automatically allocated
// address.
func (n *Network) AddHost(loc geo.Coord) *Host {
	return n.AddHostAddr(n.AllocAddr(), loc)
}

// AddHostAddr registers a host with an explicit address; it panics if
// the address is taken (static experiment configs want to fail fast).
func (n *Network) AddHostAddr(addr netip.Addr, loc geo.Coord) *Host {
	if n.lookupHost(addr) != nil {
		panic(fmt.Sprintf("netsim: duplicate host %s", addr))
	}
	if _, taken := n.serviceID(addr); taken {
		panic(fmt.Sprintf("netsim: host %s collides with anycast service", addr))
	}
	h := &Host{Addr: addr, Loc: loc, id: int32(len(n.hosts)), net: n}
	n.hosts = append(n.hosts, h)
	if i, ok := poolIndex(addr); ok && n.slabbable(i) {
		n.slabAt(i).h = h
	} else {
		n.hostExtra[addr] = h
	}
	return h
}

// Host returns the registered host for addr.
func (n *Network) Host(addr netip.Addr) (*Host, bool) {
	h := n.lookupHost(addr)
	return h, h != nil
}

// AddAnycast registers addr as an anycast service answered by the
// given member hosts (each member keeps its own unicast address too).
func (n *Network) AddAnycast(addr netip.Addr, members []*Host) {
	if len(members) == 0 {
		panic("netsim: anycast service needs at least one member")
	}
	if n.lookupHost(addr) != nil {
		panic(fmt.Sprintf("netsim: anycast %s collides with host", addr))
	}
	if _, dup := n.serviceID(addr); dup {
		panic(fmt.Sprintf("netsim: duplicate anycast service %s", addr))
	}
	id := int32(len(n.svcAddrs))
	n.svcAddrs = append(n.svcAddrs, addr)
	n.svcMembers = append(n.svcMembers, append([]*Host(nil), members...))
	if i, ok := poolIndex(addr); ok && n.slabbable(i) {
		n.slabAt(i).svc = id + 1
	} else {
		n.svcExtra[addr] = id
	}
}

// AnycastMembers returns the member hosts behind an anycast address.
func (n *Network) AnycastMembers(addr netip.Addr) []*Host {
	id, ok := n.serviceID(addr)
	if !ok {
		return nil
	}
	return n.svcMembers[id]
}

// IsAnycast reports whether addr names an anycast service.
func (n *Network) IsAnycast(addr netip.Addr) bool {
	_, ok := n.serviceID(addr)
	return ok
}

// packIDs combines two dense ids order-sensitively into a storage key.
// Exact, not hashed: ids are unique, so distinct pairs can never
// collide — a collision would silently desync sharded and sequential
// keyed-RNG streams.
func packIDs(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// packIDsUnordered combines two dense ids order-insensitively.
func packIDsUnordered(a, b int32) uint64 {
	if b < a {
		a, b = b, a
	}
	return packIDs(a, b)
}

// Catchment resolves which member of an anycast service receives
// traffic from src. The decision is made once per (src, service) pair
// and then pinned: BGP routing is stable at the one-hour timescale of
// the measurements. With probability BGPNoise the choice is not the
// lowest-latency site, reflecting real catchment inefficiency.
func (n *Network) Catchment(src *Host, service netip.Addr) *Host {
	id, ok := n.serviceID(service)
	if !ok {
		return nil
	}
	return n.catchmentID(src, id, service)
}

func (n *Network) catchmentID(src *Host, id int32, service netip.Addr) *Host {
	key := packIDs(src.id, id)
	if h, ok := n.catch[key]; ok {
		return h
	}
	members := n.svcMembers[id]
	var best *Host
	if n.keyed {
		locs := make([]geo.Coord, len(members))
		for i, m := range members {
			locs[i] = m.Loc
		}
		pick := KeyedCatchmentPick(n.Model, n.BGPNoise,
			CatchmentKey(n.keyedSeed, src.Addr, service), src.Loc, locs)
		best = members[pick]
	} else {
		best = n.pickCatchment(src, members)
	}
	n.catch[key] = best
	return best
}

func (n *Network) pickCatchment(src *Host, members []*Host) *Host {
	if len(members) == 1 {
		return members[0]
	}
	type cand struct {
		h   *Host
		rtt float64
	}
	cands := make([]cand, len(members))
	for i, m := range members {
		d := src.Loc.DistanceKm(m.Loc)
		cands[i] = cand{m, n.Model.BaseRTTMs(d, n.Model.StretchMean)}
	}
	// Sort by RTT (selection sort: member counts are small).
	for i := range cands {
		minI := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].rtt < cands[minI].rtt {
				minI = j
			}
		}
		cands[i], cands[minI] = cands[minI], cands[i]
	}
	if n.rng.Float64() >= n.BGPNoise {
		return cands[0].h
	}
	// Noisy decision: usually the runner-up, occasionally anything.
	if n.rng.Float64() < 0.7 || len(cands) == 2 {
		return cands[1].h
	}
	return cands[2+n.rng.Intn(len(cands)-2)].h
}

// PathRTTms returns the base (jitter-free) RTT in milliseconds between
// two hosts, including both last-mile components. The per-pair stretch
// is sampled on first use and pinned.
func (n *Network) PathRTTms(a, b *Host) float64 {
	if a == b {
		return 0.2 // loopback
	}
	key := packIDsUnordered(a.id, b.id)
	d := a.Loc.DistanceKm(b.Loc)
	s, ok := n.stretch[key]
	if !ok {
		if n.keyed {
			s = n.Model.SampleStretch(n.kr.reset(StretchKey(n.keyedSeed, a.Addr, b.Addr)), d)
		} else {
			s = n.Model.SampleStretch(n.rng, d)
		}
		n.stretch[key] = s
	}
	return n.Model.BaseRTTMs(d, s) + a.LastMileMs + b.LastMileMs
}

// isMember reports whether h serves the anycast address svc.
func (n *Network) isMember(h *Host, svc netip.Addr) bool {
	id, ok := n.serviceID(svc)
	if !ok {
		return false
	}
	for _, m := range n.svcMembers[id] {
		if m == h {
			return true
		}
	}
	return false
}

// send routes one datagram. Anycast destinations first resolve to a
// concrete member via the catchment; the receiver still sees the
// anycast address as dst so it can answer from that identity.
func (n *Network) send(from *Host, srcAddr, dst netip.Addr, payload []byte) {
	n.sent.Inc()
	target := n.lookupHost(dst)
	serviceAddr := dst
	if target == nil {
		if id, isAny := n.serviceID(dst); isAny {
			target = n.catchmentID(from, id, dst)
		} else {
			n.dropped.Inc()
			return // unroutable: silently dropped, like the real thing
		}
	}
	if target.Down {
		n.dropped.Inc()
		return
	}
	// In keyed mode every stochastic decision for this packet comes
	// from one stream seeded by (seed, src, dst, pair packet counter),
	// so the fate of a packet depends only on its own pair's traffic
	// history — never on draws consumed by unrelated hosts.
	prng := n.rng
	if n.keyed {
		prng = n.packetRand(from, target)
	}
	if prng.Float64() < n.LossRate || prng.Float64() < from.LossRate || prng.Float64() < target.LossRate {
		n.dropped.Inc()
		return
	}
	if n.faults != nil && n.faults.Drop(from.Addr, target.Addr, n.Sim.Now()) {
		n.faultDrops.Inc()
		n.dropped.Inc()
		return
	}
	base := n.PathRTTms(from, target)
	oneWay := base/2 + n.Model.JitterMs(prng, base)/2
	delay := time.Duration(oneWay * float64(time.Millisecond))
	if n.faults != nil {
		delay = n.faults.Shape(from.Addr, target.Addr, n.Sim.Now(), delay)
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	src := srcAddr
	n.Sim.Schedule(delay, func() {
		if target.handler == nil || target.Down {
			n.dropped.Inc()
			return
		}
		target.handler(src, serviceAddr, buf)
	})
}
