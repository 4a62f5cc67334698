package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// refName is the label-slice Name this package used before names were
// stored in wire form, kept as a test oracle: for ASCII names, every
// method of Name must agree with it.
type refName struct {
	labels []string
}

func refParseName(s string) (refName, error) {
	if s == "" || s == "." {
		return refName{}, nil
	}
	s = strings.TrimSuffix(s, ".")
	parts := strings.Split(s, ".")
	wireLen := 1
	for _, p := range parts {
		if p == "" {
			return refName{}, ErrEmptyLabel
		}
		if len(p) > maxLabelLen {
			return refName{}, ErrLabelTooLong
		}
		wireLen += 1 + len(p)
	}
	if wireLen > maxNameLen {
		return refName{}, ErrNameTooLong
	}
	return refName{labels: parts}, nil
}

func (n refName) String() string {
	if len(n.labels) == 0 {
		return "."
	}
	return strings.Join(n.labels, ".") + "."
}

func (n refName) Key() string { return strings.ToLower(n.String()) }

func (n refName) Equal(o refName) bool {
	if len(n.labels) != len(o.labels) {
		return false
	}
	for i := range n.labels {
		if !strings.EqualFold(n.labels[i], o.labels[i]) {
			return false
		}
	}
	return true
}

func (n refName) Parent() refName {
	if len(n.labels) == 0 {
		return refName{}
	}
	return refName{labels: n.labels[1:]}
}

func (n refName) Child(label string) (refName, error) {
	if label == "" {
		return refName{}, ErrEmptyLabel
	}
	if len(label) > maxLabelLen {
		return refName{}, ErrLabelTooLong
	}
	nn := refName{labels: append([]string{label}, n.labels...)}
	if nn.wireLen() > maxNameLen {
		return refName{}, ErrNameTooLong
	}
	return nn, nil
}

func (n refName) IsSubdomainOf(o refName) bool {
	if len(o.labels) > len(n.labels) {
		return false
	}
	off := len(n.labels) - len(o.labels)
	for i := range o.labels {
		if !strings.EqualFold(n.labels[off+i], o.labels[i]) {
			return false
		}
	}
	return true
}

func (n refName) wireLen() int {
	l := 1
	for _, lab := range n.labels {
		l += 1 + len(lab)
	}
	return l
}

// refCompressor is the map-keyed compressor of the label-slice Name.
type refCompressor struct {
	offsets map[string]int
	base    int
}

func (c *refCompressor) appendName(msg []byte, n refName) []byte {
	labels := n.labels
	for i := range labels {
		key := refName{labels: labels[i:]}.Key()
		if off, ok := c.offsets[key]; ok {
			ptr := uint16(0xC000 | off)
			return append(msg, byte(ptr>>8), byte(ptr))
		}
		if off := len(msg) - c.base; off < 0x4000 {
			c.offsets[key] = off
		}
		msg = append(msg, byte(len(labels[i])))
		msg = append(msg, labels[i]...)
	}
	return append(msg, 0)
}

func toRef(n Name) refName { return refName{labels: n.Labels()} }

// refPack encodes m the way Pack did with the label-slice Name.
func refPack(m *Message) []byte {
	msg := make([]byte, 12)
	binary.BigEndian.PutUint16(msg[0:], m.ID)
	flags := uint16(m.RCode & 0xF)
	if m.Response {
		flags |= 1 << 15
	}
	binary.BigEndian.PutUint16(msg[2:], flags)
	binary.BigEndian.PutUint16(msg[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(msg[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(msg[8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(msg[10:], uint16(len(m.Additional)))
	c := &refCompressor{offsets: map[string]int{}}
	for _, q := range m.Questions {
		msg = c.appendName(msg, toRef(q.Name))
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Type))
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			msg = c.appendName(msg, toRef(rr.Name))
			msg = binary.BigEndian.AppendUint16(msg, uint16(rr.Type()))
			msg = binary.BigEndian.AppendUint16(msg, uint16(rr.Class))
			msg = binary.BigEndian.AppendUint32(msg, rr.TTL)
			lenOff := len(msg)
			msg = append(msg, 0, 0)
			switch d := rr.Data.(type) {
			case NS:
				msg = c.appendName(msg, toRef(d.Host))
			case CNAME:
				msg = c.appendName(msg, toRef(d.Target))
			case PTR:
				msg = c.appendName(msg, toRef(d.Target))
			case MX:
				msg = binary.BigEndian.AppendUint16(msg, d.Preference)
				msg = c.appendName(msg, toRef(d.Host))
			case SOA:
				msg = c.appendName(msg, toRef(d.MName))
				msg = c.appendName(msg, toRef(d.RName))
				for _, v := range []uint32{d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum} {
					msg = binary.BigEndian.AppendUint32(msg, v)
				}
			default:
				msg = rr.Data.appendTo(msg, nil)
			}
			binary.BigEndian.PutUint16(msg[lenOff:], uint16(len(msg)-lenOff-2))
		}
	}
	return msg
}

// genLabel returns a random mixed-case hostname label of 1..max octets.
func genLabel(rng *rand.Rand, max int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
	b := make([]byte, 1+rng.Intn(max))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// genPresentation returns a random mixed-case ASCII presentation name
// of up to 255 wire octets; one in eight is deliberately malformed
// (empty label, 64-octet label or overlong name) to exercise errors.
func genPresentation(rng *rand.Rand) string {
	var labels []string
	wire := 1
	limit := 1 + rng.Intn(maxNameLen)
	if rng.Intn(8) == 0 {
		limit = maxNameLen + 1 + rng.Intn(64)
	}
	for {
		lab := genLabel(rng, []int{3, 12, 63}[rng.Intn(3)])
		if wire+1+len(lab) > limit {
			break
		}
		wire += 1 + len(lab)
		labels = append(labels, lab)
	}
	if rng.Intn(8) == 0 && len(labels) > 0 {
		switch i := rng.Intn(len(labels)); rng.Intn(2) {
		case 0:
			labels[i] = ""
		default:
			labels[i] = strings.Repeat("x", maxLabelLen+1)
		}
	}
	s := strings.Join(labels, ".")
	if rng.Intn(2) == 0 {
		s += "."
	}
	return s
}

// flipCase returns s with a random subset of ASCII letters re-cased.
func flipCase(rng *rand.Rand, s string) string {
	b := []byte(s)
	for i, c := range b {
		if rng.Intn(2) == 0 {
			switch {
			case 'a' <= c && c <= 'z':
				b[i] = c - 32
			case 'A' <= c && c <= 'Z':
				b[i] = c + 32
			}
		}
	}
	return string(b)
}

func sameErr(a, b error) bool { return errors.Is(a, b) && errors.Is(b, a) }

// checkAgainstRef compares every exported accessor of n with the
// oracle.
func checkAgainstRef(t *testing.T, n Name, r refName) {
	t.Helper()
	if n.String() != r.String() {
		t.Fatalf("String %q, oracle %q", n.String(), r.String())
	}
	if n.Key() != r.Key() {
		t.Fatalf("Key %q, oracle %q", n.Key(), r.Key())
	}
	if got := n.Labels(); !reflect.DeepEqual(got, r.labels) && !(len(got) == 0 && len(r.labels) == 0) {
		t.Fatalf("Labels %q, oracle %q", got, r.labels)
	}
	if n.NumLabels() != len(r.labels) {
		t.Fatalf("NumLabels %d, oracle %d", n.NumLabels(), len(r.labels))
	}
	if n.IsRoot() != (len(r.labels) == 0) {
		t.Fatalf("IsRoot %v for %q", n.IsRoot(), r)
	}
	if n.wireLen() != r.wireLen() {
		t.Fatalf("wireLen %d, oracle %d", n.wireLen(), r.wireLen())
	}
}

// TestNameMatchesReference is the differential property test of the
// wire-form Name against the label-slice oracle over random mixed-case
// ASCII names up to 255 octets.
func TestNameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		s := genPresentation(rng)
		n, err := ParseName(s)
		r, rerr := refParseName(s)
		if !sameErr(err, rerr) {
			t.Fatalf("ParseName(%q) error %v, oracle %v", s, err, rerr)
		}
		if err != nil {
			continue
		}
		checkAgainstRef(t, n, r)

		// A re-cased copy, a random ancestor and an unrelated name as
		// the other operand of the binary methods.
		other := flipCase(rng, s)
		if labs := r.labels; len(labs) > 0 && rng.Intn(2) == 0 {
			other = flipCase(rng, strings.Join(labs[rng.Intn(len(labs)):], "."))
		}
		if rng.Intn(4) == 0 {
			other = genPresentation(rng)
		}
		o, oerr := ParseName(other)
		ro, _ := refParseName(other)
		if oerr == nil {
			if n.Equal(o) != r.Equal(ro) || o.Equal(n) != ro.Equal(r) {
				t.Fatalf("Equal(%q, %q) = %v, oracle %v", s, other, n.Equal(o), r.Equal(ro))
			}
			if n.IsSubdomainOf(o) != r.IsSubdomainOf(ro) || o.IsSubdomainOf(n) != ro.IsSubdomainOf(r) {
				t.Fatalf("IsSubdomainOf(%q, %q) = %v, oracle %v", s, other, n.IsSubdomainOf(o), r.IsSubdomainOf(ro))
			}
			if (n.WireKey() == o.WireKey()) != n.Equal(o) {
				t.Fatalf("WireKey equality disagrees with Equal for %q, %q", s, other)
			}
		}
		checkAgainstRef(t, n.Parent(), r.Parent())
		label := genLabel(rng, []int{3, 63}[rng.Intn(2)])
		if rng.Intn(16) == 0 {
			label = ""
		}
		c, cerr := n.Child(label)
		rc, rcerr := r.Child(label)
		if !sameErr(cerr, rcerr) {
			t.Fatalf("Child(%q) of %q error %v, oracle %v", label, s, cerr, rcerr)
		}
		if cerr == nil {
			checkAgainstRef(t, c, rc)
		}
	}
}

// genMixedCaseMessage builds a response whose names are drawn from a small pool
// of related, differently-cased names, so packing exercises pointers to
// whole names, to shared suffixes and to earlier spellings.
func genMixedCaseMessage(rng *rand.Rand) *Message {
	base := MustParseName(flipCase(rng, "example.nl"))
	pool := []Name{base, Root}
	for len(pool) < 8 {
		p := pool[rng.Intn(len(pool))]
		if c, err := p.Child(genLabel(rng, 12)); err == nil {
			pool = append(pool, c)
		}
	}
	pick := func() Name {
		n := pool[rng.Intn(len(pool))]
		return MustParseName(flipCase(rng, n.String()))
	}
	m := &Message{Header: Header{ID: uint16(rng.Intn(1 << 16)), Response: true}}
	m.Questions = []Question{{Name: pick(), Type: TypeTXT, Class: ClassINET}}
	for _, sec := range []*[]RR{&m.Answers, &m.Authority, &m.Additional} {
		for i := rng.Intn(6); i > 0; i-- {
			var d RData
			switch rng.Intn(7) {
			case 0:
				d = NS{Host: pick()}
			case 1:
				d = CNAME{Target: pick()}
			case 2:
				d = PTR{Target: pick()}
			case 3:
				d = MX{Preference: uint16(rng.Intn(100)), Host: pick()}
			case 4:
				d = SOA{MName: pick(), RName: pick(), Serial: rng.Uint32(), Minimum: 60}
			case 5:
				d = A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(256))})}
			default:
				d = TXT{Strings: []string{genLabel(rng, 20)}}
			}
			*sec = append(*sec, RR{Name: pick(), Class: ClassINET, TTL: rng.Uint32(), Data: d})
		}
	}
	return m
}

// TestPackMatchesReference checks that multi-RR messages pack to the
// same bytes as under the label-slice Name's compressor.
func TestPackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		m := genMixedCaseMessage(rng)
		got, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if want := refPack(m); !bytes.Equal(got, want) {
			t.Fatalf("message %d packs differently from the oracle:\n got %x\nwant %x", iter, got, want)
		}
	}
}
