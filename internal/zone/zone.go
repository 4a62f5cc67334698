// Package zone implements the authoritative data model: a zone is a
// set of RRsets under an origin, with RFC 1034 lookup semantics
// (exact match, NODATA vs NXDOMAIN, CNAME, and wildcards).
//
// Wildcards matter for this system: the paper's measurement queries a
// unique label for every probe ("unique labels for each query" §3.1)
// so the test zone serves *.ourtestdomain.nl from a wildcard TXT whose
// content identifies the answering site.
package zone

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ritw/internal/dnswire"
)

// Errors returned by zone operations.
var (
	ErrOutOfZone = errors.New("zone: record out of zone")
	ErrNoSOA     = errors.New("zone: zone has no SOA")
	ErrDupSOA    = errors.New("zone: duplicate SOA")
)

// Zone is an authoritative zone: an origin plus RRsets.
type Zone struct {
	origin    dnswire.Name
	originKey string
	soa       *dnswire.RR
	// soaSet is the SOA as a one-record answer and negSOA the same
	// record with the RFC 2308 negative TTL, both built once when the
	// SOA is added. Lookups hand these and the apex NS set out as
	// shared slices capped at their length, so a caller that appends
	// gets a copy and no caller can grow into the zone's storage.
	soaSet, negSOA []dnswire.RR
	// nodes maps an owner's canonical wire key (dnswire.Name.WireKey)
	// -> type -> RRset.
	nodes map[string]map[dnswire.Type][]dnswire.RR
}

// New creates an empty zone for origin.
func New(origin dnswire.Name) *Zone {
	return &Zone{
		origin:    origin,
		originKey: origin.WireKey(),
		nodes:     make(map[string]map[dnswire.Type][]dnswire.RR),
	}
}

// Origin returns the zone apex name.
func (z *Zone) Origin() dnswire.Name { return z.origin }

// SOA returns the zone's SOA record, if set.
func (z *Zone) SOA() (dnswire.RR, bool) {
	if z.soa == nil {
		return dnswire.RR{}, false
	}
	return *z.soa, true
}

// Add inserts a record. The owner must be at or below the origin, and
// a zone holds exactly one SOA (at the apex).
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.origin) {
		return fmt.Errorf("%w: %s not under %s", ErrOutOfZone, rr.Name, z.origin)
	}
	if rr.Type() == dnswire.TypeSOA {
		if z.soa != nil {
			return ErrDupSOA
		}
		if !rr.Name.Equal(z.origin) {
			return fmt.Errorf("zone: SOA owner %s is not the apex %s", rr.Name, z.origin)
		}
		z.soaSet = []dnswire.RR{rr}
		z.soa = &z.soaSet[0]
		neg := rr
		if data, ok := neg.Data.(dnswire.SOA); ok && data.Minimum < neg.TTL {
			neg.TTL = data.Minimum
		}
		z.negSOA = []dnswire.RR{neg}
		return nil
	}
	key := rr.Name.WireKey()
	byType := z.nodes[key]
	if byType == nil {
		byType = make(map[dnswire.Type][]dnswire.RR)
		z.nodes[key] = byType
	}
	byType[rr.Type()] = append(byType[rr.Type()], rr)
	return nil
}

// MustAdd is Add for static configuration; it panics on error.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// NumRecords counts all records including the SOA.
func (z *Zone) NumRecords() int {
	n := 0
	if z.soa != nil {
		n++
	}
	for _, byType := range z.nodes {
		for _, set := range byType {
			n += len(set)
		}
	}
	return n
}

// Names returns all owner names (canonical form) in sorted order,
// excluding the apex SOA-only case.
type ResultKind uint8

// Lookup outcomes, in RFC 2308 terms.
const (
	// Success: the RRset is in Records.
	Success ResultKind = iota
	// NoData: the owner exists but has no RRset of the queried type.
	NoData
	// NXDomain: the owner does not exist in the zone.
	NXDomain
	// Delegation would be used for referrals; this system serves leaf
	// zones only, so it is reserved.
	Delegation
)

// String names the lookup outcome.
func (k ResultKind) String() string {
	switch k {
	case Success:
		return "Success"
	case NoData:
		return "NoData"
	case NXDomain:
		return "NXDomain"
	case Delegation:
		return "Delegation"
	default:
		return fmt.Sprintf("ResultKind(%d)", uint8(k))
	}
}

// Result is the outcome of a zone lookup.
type Result struct {
	Kind ResultKind
	// Records is the answer RRset (owner rewritten for wildcard
	// matches, CNAME prepended when followed).
	Records []dnswire.RR
	// Authority carries the SOA for negative answers and the NS set
	// for positive ones, ready for the respective message sections.
	Authority []dnswire.RR
	// Wildcard reports whether a wildcard synthesized the answer.
	Wildcard bool
}

// Lookup resolves (qname, qtype) within the zone following RFC 1034
// §4.3.2: exact node match, else wildcard, with CNAME chasing inside
// the zone (single step; our zones do not chain CNAMEs).
func (z *Zone) Lookup(qname dnswire.Name, qtype dnswire.Type) Result {
	if !qname.IsSubdomainOf(z.origin) {
		return Result{Kind: NXDomain, Authority: z.negativeAuthority()}
	}
	if qtype == dnswire.TypeSOA && qname.Equal(z.origin) {
		if z.soa != nil {
			return Result{Kind: Success, Records: z.soaSet, Authority: z.apexNS()}
		}
		return Result{Kind: NoData, Authority: z.negativeAuthority()}
	}

	key := qname.WireKey()
	byType, exists := z.nodes[key]
	if exists {
		if rrs := z.answer(byType, qname, qtype, false); rrs != nil {
			return Result{Kind: Success, Records: rrs, Authority: z.apexNS()}
		}
		return Result{Kind: NoData, Authority: z.negativeAuthority()}
	}
	// Wildcard search: climb from the qname's parent to the apex
	// looking for *.<ancestor>. Each probe key is "\x01*" plus an
	// ancestor's suffix of the qname key, built in a stack buffer.
	var wc [2 + 255]byte
	wc[0], wc[1] = 1, '*'
	stop := len(key) - len(z.originKey)
	for off := 0; off < stop; {
		off += 1 + int(key[off])
		n := copy(wc[2:], key[off:])
		if byType, ok := z.nodes[string(wc[:2+n])]; ok {
			if rrs := z.answer(byType, qname, qtype, true); rrs != nil {
				return Result{Kind: Success, Records: rrs, Authority: z.apexNS(), Wildcard: true}
			}
			return Result{Kind: NoData, Authority: z.negativeAuthority(), Wildcard: true}
		}
	}
	// The apex itself exists implicitly if it has an SOA.
	if qname.Equal(z.origin) && z.soa != nil {
		return Result{Kind: NoData, Authority: z.negativeAuthority()}
	}
	return Result{Kind: NXDomain, Authority: z.negativeAuthority()}
}

// answer extracts the RRset for qtype from a node, rewriting owners
// for wildcard synthesis and following one CNAME step. An exact match
// shares the zone's RRset, capped at its length.
func (z *Zone) answer(byType map[dnswire.Type][]dnswire.RR, qname dnswire.Name, qtype dnswire.Type, wildcard bool) []dnswire.RR {
	rewrite := func(rrs []dnswire.RR) []dnswire.RR {
		if !wildcard {
			return rrs[:len(rrs):len(rrs)]
		}
		out := make([]dnswire.RR, len(rrs))
		copy(out, rrs)
		for i := range out {
			out[i].Name = qname
		}
		return out
	}
	if qtype == dnswire.TypeANY {
		var all []dnswire.RR
		types := make([]int, 0, len(byType))
		for t := range byType {
			types = append(types, int(t))
		}
		sort.Ints(types)
		for _, t := range types {
			all = append(all, rewrite(byType[dnswire.Type(t)])...)
		}
		if len(all) == 0 {
			return nil
		}
		return all
	}
	if rrs, ok := byType[qtype]; ok {
		return rewrite(rrs)
	}
	// CNAME at the node answers any type (except when CNAME itself was
	// asked, handled above).
	if rrs, ok := byType[dnswire.TypeCNAME]; ok {
		return rewrite(rrs)
	}
	return nil
}

// apexNS returns the zone's NS RRset for the authority section.
func (z *Zone) apexNS() []dnswire.RR {
	rrs := z.nodes[z.originKey][dnswire.TypeNS]
	return rrs[:len(rrs):len(rrs)]
}

// negativeAuthority returns the SOA for NXDOMAIN/NODATA responses,
// with its TTL clamped to the SOA minimum (RFC 2308 negative TTL).
func (z *Zone) negativeAuthority() []dnswire.RR { return z.negSOA }

// Records returns every record in the zone with the SOA first and the
// rest in sorted owner/type order — the order a zone transfer emits.
func (z *Zone) Records() []dnswire.RR {
	out := make([]dnswire.RR, 0, z.NumRecords())
	if z.soa != nil {
		out = append(out, *z.soa)
	}
	for _, set := range z.sortedRRsets() {
		out = append(out, set...)
	}
	return out
}

// String renders the zone in master-file-like form (apex first, then
// sorted owners) for debugging and golden tests.
func (z *Zone) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "$ORIGIN %s\n", z.origin)
	if z.soa != nil {
		fmt.Fprintln(&sb, z.soa.String())
	}
	for _, set := range z.sortedRRsets() {
		for _, rr := range set {
			fmt.Fprintln(&sb, rr.String())
		}
	}
	return sb.String()
}

// sortedRRsets returns the RRsets ordered by owner, then type. Owners
// sort by their lowercase presentation form (Name.Key), not by the
// wire keys the nodes are stored under: the two orders differ (for
// "a-b.x." against "a.b.x." the dot sorts after '-' in presentation
// form, while in wire form the first label's length decides).
func (z *Zone) sortedRRsets() [][]dnswire.RR {
	type owner struct {
		pres   string
		byType map[dnswire.Type][]dnswire.RR
	}
	owners := make([]owner, 0, len(z.nodes))
	for _, byType := range z.nodes {
		for _, set := range byType {
			owners = append(owners, owner{set[0].Name.Key(), byType})
			break
		}
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].pres < owners[j].pres })
	var sets [][]dnswire.RR
	for _, o := range owners {
		types := make([]int, 0, len(o.byType))
		for t := range o.byType {
			types = append(types, int(t))
		}
		sort.Ints(types)
		for _, t := range types {
			sets = append(sets, o.byType[dnswire.Type(t)])
		}
	}
	return sets
}
