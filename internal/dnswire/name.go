package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Wire-format limits from RFC 1035 §2.3.4.
const (
	maxLabelLen = 63
	maxNameLen  = 255 // total octets in wire form, including the root label
	maxLabels   = (maxNameLen - 1) / 2
)

// Errors returned by name parsing and decoding.
var (
	ErrNameTooLong      = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong     = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel       = errors.New("dnswire: empty label")
	ErrCompressionLoop  = errors.New("dnswire: compression pointer loop")
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
)

// Name is a fully-qualified domain name stored in its uncompressed
// wire form: length-prefixed labels in one string, without the
// terminal zero octet. The zero value is the root name. Comparison is
// case-insensitive over ASCII only (RFC 4343 §3); the original
// spelling is preserved for display and on the wire.
//
// Every operation on the packet path (parent, subdomain, equality,
// map keys, compression) works on the wire string directly, so it
// never splits or joins labels. Length octets are at most 63, below
// 'A', so ASCII case folding over the whole wire string touches label
// bytes only.
type Name struct {
	wire string
}

// Root is the DNS root name (".").
var Root = Name{}

// ParseName parses a presentation-format name such as "www.example.nl"
// or "example.nl." (a trailing dot is accepted and implied). Escapes
// are not supported: the measurement system only handles hostname-like
// labels plus the numeric labels it generates itself.
func ParseName(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	s = strings.TrimSuffix(s, ".")
	for rest := s; ; {
		lab, tail, more := strings.Cut(rest, ".")
		if lab == "" {
			return Name{}, ErrEmptyLabel
		}
		if len(lab) > maxLabelLen {
			return Name{}, ErrLabelTooLong
		}
		if !more {
			break
		}
		rest = tail
	}
	// Each dot becomes the next label's length octet, plus one leading
	// length octet and the root octet.
	if len(s)+2 > maxNameLen {
		return Name{}, ErrNameTooLong
	}
	var sb strings.Builder
	sb.Grow(len(s) + 1)
	for rest := s; ; {
		lab, tail, more := strings.Cut(rest, ".")
		sb.WriteByte(byte(len(lab)))
		sb.WriteString(lab)
		if !more {
			break
		}
		rest = tail
	}
	return Name{wire: sb.String()}, nil
}

// MustParseName is ParseName for static configuration; it panics on error.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(fmt.Sprintf("dnswire: bad name %q: %v", s, err))
	}
	return n
}

// NewName builds a name from explicit labels, most-specific first.
func NewName(labels ...string) (Name, error) {
	return ParseName(strings.Join(labels, "."))
}

// String returns the presentation form with a trailing dot ("." for root).
func (n Name) String() string {
	if n.wire == "" {
		return "."
	}
	var buf [maxNameLen]byte
	return string(n.appendPresentation(buf[:0], false))
}

// Key returns the presentation form with ASCII letters lowercased: the
// case-insensitive display key that records and traces carry as their
// query name. Maps and comparisons use WireKey instead.
func (n Name) Key() string {
	if n.wire == "" {
		return "."
	}
	var buf [maxNameLen]byte
	return string(n.appendPresentation(buf[:0], true))
}

// appendPresentation appends each label followed by a dot, optionally
// ASCII-lowercased.
func (n Name) appendPresentation(dst []byte, lower bool) []byte {
	w := n.wire
	for i := 0; i < len(w); {
		end := i + 1 + int(w[i])
		if lower {
			for _, c := range []byte(w[i+1 : end]) {
				dst = append(dst, lowerASCII(c))
			}
		} else {
			dst = append(dst, w[i+1:end]...)
		}
		dst = append(dst, '.')
		i = end
	}
	return dst
}

// WireKey returns the canonical key of the name: its wire form with
// ASCII letters lowercased (the RFC 4034 §6.2 canonical form, without
// the root octet). Two names are Equal exactly when their WireKeys are
// equal. It allocates only when the name holds an upper-case letter.
func (n Name) WireKey() string {
	w := n.wire
	for i := 0; i < len(w); i++ {
		if isUpperASCII(w[i]) {
			b := []byte(w)
			for j := i; j < len(b); j++ {
				b[j] = lowerASCII(b[j])
			}
			return string(b)
		}
	}
	return w
}

// Labels returns a copy of the label sequence, most-specific first.
func (n Name) Labels() []string {
	out := make([]string, 0, n.NumLabels())
	for i := 0; i < len(n.wire); {
		end := i + 1 + int(n.wire[i])
		out = append(out, n.wire[i+1:end])
		i = end
	}
	return out
}

// NumLabels returns the label count (0 for root).
func (n Name) NumLabels() int {
	k := 0
	for i := 0; i < len(n.wire); i += 1 + int(n.wire[i]) {
		k++
	}
	return k
}

// IsRoot reports whether the name is the DNS root.
func (n Name) IsRoot() bool { return n.wire == "" }

// Equal reports case-insensitive equality (ASCII folding only).
func (n Name) Equal(o Name) bool { return equalFoldASCII(n.wire, o.wire) }

// Parent returns the name with its most-specific label removed; the
// parent of root is root.
func (n Name) Parent() Name {
	if n.wire == "" {
		return Root
	}
	return Name{wire: n.wire[1+int(n.wire[0]):]}
}

// Child returns the name with label prepended.
func (n Name) Child(label string) (Name, error) {
	if label == "" {
		return Name{}, ErrEmptyLabel
	}
	if len(label) > maxLabelLen {
		return Name{}, ErrLabelTooLong
	}
	if 1+len(label)+n.wireLen() > maxNameLen {
		return Name{}, ErrNameTooLong
	}
	var sb strings.Builder
	sb.Grow(1 + len(label) + len(n.wire))
	sb.WriteByte(byte(len(label)))
	sb.WriteString(label)
	sb.WriteString(n.wire)
	return Name{wire: sb.String()}, nil
}

// IsSubdomainOf reports whether n is equal to o or falls below it.
func (n Name) IsSubdomainOf(o Name) bool {
	off := len(n.wire) - len(o.wire)
	if off < 0 || !equalFoldASCII(n.wire[off:], o.wire) {
		return false
	}
	// The matching suffix must start on a label boundary: a label's
	// bytes can spell another name's wire form.
	i := 0
	for i < off {
		i += 1 + int(n.wire[i])
	}
	return i == off
}

// wireLen returns the encoded length without compression.
func (n Name) wireLen() int { return len(n.wire) + 1 }

// appendWire appends the uncompressed wire form of n to b.
func (n Name) appendWire(b []byte) []byte {
	return append(append(b, n.wire...), 0)
}

func isUpperASCII(c byte) bool { return 'A' <= c && c <= 'Z' }

func lowerASCII(c byte) byte {
	if isUpperASCII(c) {
		return c + ('a' - 'A')
	}
	return c
}

// equalFoldASCII reports whether a and b are equal under ASCII case
// folding. Unlike strings.EqualFold it never folds non-ASCII runes
// (RFC 4343 §3: U+212A KELVIN SIGN is not 'k').
func equalFoldASCII(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	if a == b {
		return true
	}
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] && lowerASCII(a[i]) != lowerASCII(b[i]) {
			return false
		}
	}
	return true
}

// compressor tracks already-emitted names so later occurrences can be
// replaced by compression pointers (RFC 1035 §4.1.4). Pointers can only
// reference offsets below 0x4000, counted from the start of the DNS
// message — which is base, not 0, when the message is being appended
// to a buffer that already holds other data.
//
// Emitted suffixes live in a flat open-addressing table, hashed and
// compared under ASCII folding — that is, on their canonical key —
// so a later spelling in another case still compresses. Entries
// reference the names' own wire strings, and a message with up to
// compInline*3/4 distinct suffixes never leaves the inline table:
// a compressor on the stack packs a typical message without
// allocating.
type compressor struct {
	base  int
	used  int
	big   []compEntry // the table once it outgrows inline
	small [compInline]compEntry
}

const compInline = 32

// compEntry maps one emitted name suffix to its message offset. An
// empty suffix marks a free slot (the root is never recorded).
type compEntry struct {
	suffix string
	hash   uint32
	off    uint16
}

func newCompressor(base int) compressor { return compressor{base: base} }

func (c *compressor) table() []compEntry {
	if c.big != nil {
		return c.big
	}
	return c.small[:]
}

// lookup returns the offset recorded for suffix, if any.
func (c *compressor) lookup(suffix string, h uint32) (int, bool) {
	t := c.table()
	mask := uint32(len(t) - 1)
	for i := h & mask; t[i].suffix != ""; i = (i + 1) & mask {
		if t[i].hash == h && equalFoldASCII(t[i].suffix, suffix) {
			return int(t[i].off), true
		}
	}
	return 0, false
}

// insert records a suffix known to be absent, growing the table past
// three-quarters load.
func (c *compressor) insert(suffix string, h uint32, off int) {
	t := c.table()
	if (c.used+1)*4 > len(t)*3 {
		grown := make([]compEntry, 2*len(t))
		mask := uint32(len(grown) - 1)
		for _, e := range t {
			if e.suffix != "" {
				i := e.hash & mask
				for grown[i].suffix != "" {
					i = (i + 1) & mask
				}
				grown[i] = e
			}
		}
		c.big, t = grown, grown
	}
	mask := uint32(len(t) - 1)
	i := h & mask
	for t[i].suffix != "" {
		i = (i + 1) & mask
	}
	t[i] = compEntry{suffix: suffix, hash: h, off: uint16(off)}
	c.used++
}

// appendName appends n at the current end of msg, using and recording
// compression pointers.
func (c *compressor) appendName(msg []byte, n Name) []byte {
	w := n.wire
	// Label starts, then suffix hashes right to left so that each
	// suffix's hash extends the one of the suffix after it.
	var starts [maxLabels + 1]uint8
	var hashes [maxLabels + 1]uint32
	k := 0
	for i := 0; i < len(w); i += 1 + int(w[i]) {
		starts[k] = uint8(i)
		k++
	}
	const fnvOffset, fnvPrime = 2166136261, 16777619
	h := uint32(fnvOffset)
	end := len(w)
	for j := k - 1; j >= 0; j-- {
		for i := int(starts[j]); i < end; i++ {
			h = (h ^ uint32(lowerASCII(w[i]))) * fnvPrime
		}
		hashes[j] = h
		end = int(starts[j])
	}
	for j := 0; j < k; j++ {
		suffix := w[starts[j]:]
		if off, ok := c.lookup(suffix, hashes[j]); ok {
			return append(msg, byte(0xC0|off>>8), byte(off))
		}
		if off := len(msg) - c.base; off < 0x4000 {
			c.insert(suffix, hashes[j], off)
		}
		msg = append(msg, suffix[:1+int(suffix[0])]...)
	}
	return append(msg, 0)
}

// nameCache remembers, for the label starts of names already decoded
// from one message, the name that decoding from there yields. A later
// name that is a bare compression pointer to one of them — a record
// owner pointing at the question, glue pointing at an NS target —
// then shares that string instead of allocating its own.
type nameCache struct {
	n       int
	entries [16]nameCacheEntry
}

type nameCacheEntry struct {
	pos  int // message offset of a label start
	hops int // compression pointers followed from pos to the name's end
	name Name
}

// add records the label starts of name's leading uncompressed run,
// which begins at off in msg; hops is the decode's pointer count.
func (c *nameCache) add(msg []byte, off int, name Name, hops int) {
	w := name.wire
	for i := 0; i < len(w) && c.n < len(c.entries) && msg[off+i]&0xC0 == 0; i += 1 + int(w[i]) {
		c.entries[c.n] = nameCacheEntry{pos: off + i, hops: hops, name: Name{wire: w[i:]}}
		c.n++
	}
}

func (c *nameCache) lookup(pos int) (nameCacheEntry, bool) {
	for _, e := range c.entries[:c.n] {
		if e.pos == pos {
			return e, true
		}
	}
	return nameCacheEntry{}, false
}

// decodeName reads a possibly-compressed name starting at off in msg.
// It returns the name and the offset just past the name's first
// (pre-pointer) encoding. The labels are gathered in a stack buffer,
// so the name costs one allocation (none for the root), and none when
// names (which may be nil) already holds the target of a bare pointer.
func decodeName(msg []byte, off int, names *nameCache) (Name, int, error) {
	if names != nil && off+1 < len(msg) && msg[off]&0xC0 == 0xC0 {
		// The pointer must point backward, and one more hop than the
		// cached decode took must stay within the hop limit below;
		// anything else takes the full walk and its errors.
		ptr := int(msg[off]&0x3F)<<8 | int(msg[off+1])
		if e, ok := names.lookup(ptr); ok && ptr < off && e.hops < 127 {
			return e.name, off + 2, nil
		}
	}
	var buf [maxNameLen]byte
	n := 0    // wire octets gathered, excluding the root octet
	seen := 0 // pointer-hop guard
	end := -1 // offset after the name in the original stream
	pos := off
	for {
		if pos >= len(msg) {
			return Name{}, 0, ErrTruncatedMessage
		}
		b := msg[pos]
		switch {
		case b == 0:
			if end == -1 {
				end = pos + 1
			}
			name := Name{wire: string(buf[:n])}
			if names != nil {
				names.add(msg, off, name, seen)
			}
			return name, end, nil
		case b&0xC0 == 0xC0:
			if pos+1 >= len(msg) {
				return Name{}, 0, ErrTruncatedMessage
			}
			ptr := int(b&0x3F)<<8 | int(msg[pos+1])
			if end == -1 {
				end = pos + 2
			}
			// Every pointer must point strictly backward; this makes the
			// walk monotone and loop-free.
			if ptr >= pos {
				return Name{}, 0, ErrCompressionLoop
			}
			seen++
			if seen > 127 {
				return Name{}, 0, ErrCompressionLoop
			}
			pos = ptr
		case b&0xC0 != 0:
			return Name{}, 0, fmt.Errorf("dnswire: reserved label type 0x%02x", b&0xC0)
		default:
			l := int(b)
			if pos+1+l > len(msg) {
				return Name{}, 0, ErrTruncatedMessage
			}
			if n+1+l+1 > maxNameLen {
				return Name{}, 0, ErrNameTooLong
			}
			n += copy(buf[n:], msg[pos:pos+1+l])
			pos += 1 + l
		}
	}
}
