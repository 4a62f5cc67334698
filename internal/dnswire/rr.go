package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// ErrRDataTooLong is returned when encoded rdata exceeds 65535 octets.
var ErrRDataTooLong = errors.New("dnswire: rdata exceeds 65535 octets")

// RData is the type-specific payload of a resource record.
//
// appendTo appends the wire form of the rdata to msg. Name-bearing
// rdata (NS, CNAME, PTR, SOA, MX) participates in message compression
// via c, as RFC 1035 permits for these well-known types; appendRData
// dispatches them and hands every other type a nil c.
type RData interface {
	// Type returns the RR type this rdata belongs to.
	Type() Type
	// appendTo appends the wire encoding (without the RDLENGTH prefix).
	appendTo(msg []byte, c *compressor) []byte
	// String returns the presentation form of the rdata.
	String() string
}

// RR is a DNS resource record.
type RR struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record's type, taken from its rdata.
func (r RR) Type() Type {
	if r.Data == nil {
		return TypeNone
	}
	return r.Data.Type()
}

// String renders the record in zone-file presentation order.
func (r RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s",
		r.Name, r.TTL, r.Class, r.Type(), r.Data)
}

// A is an IPv4 address record.
type A struct {
	Addr netip.Addr
}

// Type implements RData.
func (A) Type() Type { return TypeA }

func (a A) appendTo(msg []byte, _ *compressor) []byte {
	v4 := a.Addr.As4()
	return append(msg, v4[:]...)
}

// String implements RData.
func (a A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record.
type AAAA struct {
	Addr netip.Addr
}

// Type implements RData.
func (AAAA) Type() Type { return TypeAAAA }

func (a AAAA) appendTo(msg []byte, _ *compressor) []byte {
	v6 := a.Addr.As16()
	return append(msg, v6[:]...)
}

// String implements RData.
func (a AAAA) String() string { return a.Addr.String() }

// NS names an authoritative server for the owner zone.
type NS struct {
	Host Name
}

// Type implements RData.
func (NS) Type() Type { return TypeNS }

func (n NS) appendTo(msg []byte, c *compressor) []byte {
	return c.appendName(msg, n.Host)
}

// String implements RData.
func (n NS) String() string { return n.Host.String() }

// CNAME is a canonical-name alias record.
type CNAME struct {
	Target Name
}

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

func (cn CNAME) appendTo(msg []byte, c *compressor) []byte {
	return c.appendName(msg, cn.Target)
}

// String implements RData.
func (cn CNAME) String() string { return cn.Target.String() }

// PTR is a pointer record (reverse mapping).
type PTR struct {
	Target Name
}

// Type implements RData.
func (PTR) Type() Type { return TypePTR }

func (p PTR) appendTo(msg []byte, c *compressor) []byte {
	return c.appendName(msg, p.Target)
}

// String implements RData.
func (p PTR) String() string { return p.Target.String() }

// MX is a mail-exchanger record.
type MX struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MX) Type() Type { return TypeMX }

func (m MX) appendTo(msg []byte, c *compressor) []byte {
	msg = binary.BigEndian.AppendUint16(msg, m.Preference)
	return c.appendName(msg, m.Host)
}

// String implements RData.
func (m MX) String() string { return fmt.Sprintf("%d %s", m.Preference, m.Host) }

// SOA is the start-of-authority record.
type SOA struct {
	MName   Name // primary name server
	RName   Name // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32 // negative-caching TTL (RFC 2308)
}

// Type implements RData.
func (SOA) Type() Type { return TypeSOA }

func (s SOA) appendTo(msg []byte, c *compressor) []byte {
	msg = c.appendName(msg, s.MName)
	msg = c.appendName(msg, s.RName)
	msg = binary.BigEndian.AppendUint32(msg, s.Serial)
	msg = binary.BigEndian.AppendUint32(msg, s.Refresh)
	msg = binary.BigEndian.AppendUint32(msg, s.Retry)
	msg = binary.BigEndian.AppendUint32(msg, s.Expire)
	return binary.BigEndian.AppendUint32(msg, s.Minimum)
}

// String implements RData.
func (s SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		s.MName, s.RName, s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

// TXT carries one or more character strings of at most 255 octets
// each. The paper's experiment hinges on TXT: each authoritative site
// answers the same TXT question with its own identity string, which is
// how a vantage point learns which site served it.
type TXT struct {
	Strings []string
}

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

func (t TXT) appendTo(msg []byte, _ *compressor) []byte {
	if len(t.Strings) == 0 {
		// RFC 1035 requires at least one (possibly empty) string.
		return append(msg, 0)
	}
	for _, s := range t.Strings {
		if len(s) > 255 {
			s = s[:255]
		}
		msg = append(msg, byte(len(s)))
		msg = append(msg, s...)
	}
	return msg
}

// String implements RData.
func (t TXT) String() string {
	parts := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

// Joined returns the concatenation of all strings, the conventional
// application-level view of a TXT record.
func (t TXT) Joined() string { return strings.Join(t.Strings, "") }

// OPT is the EDNS0 pseudo-record (RFC 6891). It abuses the RR fields:
// CLASS carries the requester's UDP payload size and TTL carries the
// extended RCODE and flags. This package keeps the decoded view.
type OPT struct {
	UDPSize       uint16
	ExtendedRCode uint8
	Version       uint8
	DNSSECOK      bool
}

// Type implements RData.
func (OPT) Type() Type { return TypeOPT }

func (OPT) appendTo(msg []byte, _ *compressor) []byte {
	// No options are carried; rdata is empty.
	return msg
}

// String implements RData.
func (o OPT) String() string {
	return fmt.Sprintf("udp=%d ver=%d do=%v", o.UDPSize, o.Version, o.DNSSECOK)
}

// Raw is rdata of a type this package does not decode, preserved
// verbatim (RFC 3597 transparency).
type Raw struct {
	RRType Type
	Data   []byte
}

// Type implements RData.
func (r Raw) Type() Type { return r.RRType }

func (r Raw) appendTo(msg []byte, _ *compressor) []byte {
	return append(msg, r.Data...)
}

// String implements RData.
func (r Raw) String() string { return fmt.Sprintf("\\# %d %x", len(r.Data), r.Data) }

// decodeRData parses rdata of the given type from msg[off:off+rdlen].
// Compression pointers inside rdata may reference earlier parts of msg.
func decodeRData(typ Type, msg []byte, off, rdlen int, names *nameCache) (RData, error) {
	end := off + rdlen
	if end > len(msg) {
		return nil, ErrTruncatedMessage
	}
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return nil, fmt.Errorf("dnswire: A rdata length %d", rdlen)
		}
		return A{Addr: netip.AddrFrom4([4]byte(msg[off:end]))}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, fmt.Errorf("dnswire: AAAA rdata length %d", rdlen)
		}
		return AAAA{Addr: netip.AddrFrom16([16]byte(msg[off:end]))}, nil
	case TypeNS:
		n, _, err := decodeName(msg, off, names)
		return NS{Host: n}, err
	case TypeCNAME:
		n, _, err := decodeName(msg, off, names)
		return CNAME{Target: n}, err
	case TypePTR:
		n, _, err := decodeName(msg, off, names)
		return PTR{Target: n}, err
	case TypeMX:
		if rdlen < 3 {
			return nil, fmt.Errorf("dnswire: MX rdata length %d", rdlen)
		}
		pref := binary.BigEndian.Uint16(msg[off:])
		n, _, err := decodeName(msg, off+2, names)
		return MX{Preference: pref, Host: n}, err
	case TypeSOA:
		mname, next, err := decodeName(msg, off, names)
		if err != nil {
			return nil, err
		}
		rname, next, err := decodeName(msg, next, names)
		if err != nil {
			return nil, err
		}
		if next+20 > len(msg) {
			return nil, ErrTruncatedMessage
		}
		return SOA{
			MName:   mname,
			RName:   rname,
			Serial:  binary.BigEndian.Uint32(msg[next:]),
			Refresh: binary.BigEndian.Uint32(msg[next+4:]),
			Retry:   binary.BigEndian.Uint32(msg[next+8:]),
			Expire:  binary.BigEndian.Uint32(msg[next+12:]),
			Minimum: binary.BigEndian.Uint32(msg[next+16:]),
		}, nil
	case TypeTXT:
		var strs []string
		p := off
		for p < end {
			l := int(msg[p])
			p++
			if p+l > end {
				return nil, ErrTruncatedMessage
			}
			strs = append(strs, string(msg[p:p+l]))
			p += l
		}
		return TXT{Strings: strs}, nil
	default:
		data := make([]byte, rdlen)
		copy(data, msg[off:end])
		return Raw{RRType: typ, Data: data}, nil
	}
}
