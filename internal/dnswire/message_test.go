package dnswire

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

func mustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func sampleMessage() *Message {
	q := MustParseName("probe-123.ourtestdomain.nl")
	m := &Message{
		Header: Header{
			ID:                 0xBEEF,
			Response:           true,
			Authoritative:      true,
			RecursionDesired:   true,
			RecursionAvailable: false,
			RCode:              RCodeNoError,
		},
		Questions: []Question{{Name: q, Type: TypeTXT, Class: ClassINET}},
		Answers: []RR{
			{Name: q, Class: ClassINET, TTL: 5, Data: TXT{Strings: []string{"site=FRA"}}},
		},
		Authority: []RR{
			{Name: MustParseName("ourtestdomain.nl"), Class: ClassINET, TTL: 3600,
				Data: NS{Host: MustParseName("ns1.ourtestdomain.nl")}},
			{Name: MustParseName("ourtestdomain.nl"), Class: ClassINET, TTL: 3600,
				Data: NS{Host: MustParseName("ns2.ourtestdomain.nl")}},
		},
		Additional: []RR{
			{Name: MustParseName("ns1.ourtestdomain.nl"), Class: ClassINET, TTL: 3600,
				Data: A{Addr: mustAddr("192.0.2.1")}},
			{Name: MustParseName("ns2.ourtestdomain.nl"), Class: ClassINET, TTL: 3600,
				Data: AAAA{Addr: mustAddr("2001:db8::2")}},
		},
	}
	return m
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || !got.Response || !got.Authoritative || got.RCode != RCodeNoError {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 || !got.Questions[0].Name.Equal(m.Questions[0].Name) {
		t.Errorf("question mismatch: %+v", got.Questions)
	}
	if len(got.Answers) != 1 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	txt, ok := got.Answers[0].Data.(TXT)
	if !ok || txt.Joined() != "site=FRA" {
		t.Errorf("TXT = %#v", got.Answers[0].Data)
	}
	if got.Answers[0].TTL != 5 {
		t.Errorf("TTL = %d", got.Answers[0].TTL)
	}
	if len(got.Authority) != 2 || len(got.Additional) != 2 {
		t.Errorf("sections: ns=%d ar=%d", len(got.Authority), len(got.Additional))
	}
	if a, ok := got.Additional[0].Data.(A); !ok || a.Addr != mustAddr("192.0.2.1") {
		t.Errorf("A = %#v", got.Additional[0].Data)
	}
	if aaaa, ok := got.Additional[1].Data.(AAAA); !ok || aaaa.Addr != mustAddr("2001:db8::2") {
		t.Errorf("AAAA = %#v", got.Additional[1].Data)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// All names share the ourtestdomain.nl suffix; expect much smaller
	// than the naive encoding.
	naive := 12
	for _, q := range m.Questions {
		naive += q.Name.wireLen() + 4
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			naive += rr.Name.wireLen() + 10 + 64
		}
	}
	if len(wire) >= naive {
		t.Errorf("no compression: wire=%d naive>=%d", len(wire), naive)
	}
}

func TestAllRDataTypesRoundTrip(t *testing.T) {
	owner := MustParseName("rr.example.nl")
	records := []RR{
		{Name: owner, Class: ClassINET, TTL: 60, Data: A{Addr: mustAddr("198.51.100.7")}},
		{Name: owner, Class: ClassINET, TTL: 60, Data: AAAA{Addr: mustAddr("2001:db8::7")}},
		{Name: owner, Class: ClassINET, TTL: 60, Data: NS{Host: MustParseName("ns.example.nl")}},
		{Name: owner, Class: ClassINET, TTL: 60, Data: CNAME{Target: MustParseName("alias.example.nl")}},
		{Name: owner, Class: ClassINET, TTL: 60, Data: PTR{Target: MustParseName("host.example.nl")}},
		{Name: owner, Class: ClassINET, TTL: 60, Data: MX{Preference: 10, Host: MustParseName("mx.example.nl")}},
		{Name: owner, Class: ClassINET, TTL: 60, Data: SOA{
			MName: MustParseName("ns.example.nl"), RName: MustParseName("hostmaster.example.nl"),
			Serial: 2017041201, Refresh: 7200, Retry: 3600, Expire: 604800, Minimum: 300}},
		{Name: owner, Class: ClassINET, TTL: 60, Data: TXT{Strings: []string{"a", "b", strings.Repeat("x", 255)}}},
		{Name: owner, Class: ClassINET, TTL: 60, Data: Raw{RRType: Type(99), Data: []byte{1, 2, 3}}},
	}
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: owner, Type: TypeANY, Class: ClassINET}},
		Answers:   records,
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(records) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(records))
	}
	for i, rr := range got.Answers {
		want := records[i]
		if rr.Type() != want.Type() {
			t.Errorf("answer %d type = %v, want %v", i, rr.Type(), want.Type())
			continue
		}
		switch d := rr.Data.(type) {
		case A:
			if d.Addr != want.Data.(A).Addr {
				t.Errorf("A mismatch: %v", d)
			}
		case AAAA:
			if d.Addr != want.Data.(AAAA).Addr {
				t.Errorf("AAAA mismatch: %v", d)
			}
		case NS:
			if !d.Host.Equal(want.Data.(NS).Host) {
				t.Errorf("NS mismatch: %v", d)
			}
		case CNAME:
			if !d.Target.Equal(want.Data.(CNAME).Target) {
				t.Errorf("CNAME mismatch: %v", d)
			}
		case PTR:
			if !d.Target.Equal(want.Data.(PTR).Target) {
				t.Errorf("PTR mismatch: %v", d)
			}
		case MX:
			w := want.Data.(MX)
			if d.Preference != w.Preference || !d.Host.Equal(w.Host) {
				t.Errorf("MX mismatch: %v", d)
			}
		case SOA:
			w := want.Data.(SOA)
			if d.Serial != w.Serial || !d.MName.Equal(w.MName) || d.Minimum != w.Minimum {
				t.Errorf("SOA mismatch: %+v", d)
			}
		case TXT:
			if !reflect.DeepEqual(d.Strings, want.Data.(TXT).Strings) {
				t.Errorf("TXT mismatch: %v", d)
			}
		case Raw:
			w := want.Data.(Raw)
			if d.RRType != w.RRType || !reflect.DeepEqual(d.Data, w.Data) {
				t.Errorf("Raw mismatch: %v", d)
			}
		default:
			t.Errorf("unexpected rdata %T", rr.Data)
		}
	}
}

func TestEDNS0RoundTrip(t *testing.T) {
	m := NewQuery(7, MustParseName("example.nl"), TypeA)
	m.SetEDNS0(DefaultEDNSSize, true)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := got.OPT()
	if !ok {
		t.Fatal("OPT missing after round trip")
	}
	if opt.UDPSize != DefaultEDNSSize || !opt.DNSSECOK {
		t.Errorf("OPT = %+v", opt)
	}
	if _, ok := (&Message{}).OPT(); ok {
		t.Error("empty message should have no OPT")
	}
}

func TestChaosQuery(t *testing.T) {
	m := NewChaosQuery(3, MustParseName("hostname.bind"))
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := got.Question()
	if !ok || q.Class != ClassCHAOS || q.Type != TypeTXT {
		t.Errorf("question = %+v", q)
	}
	if got.RecursionDesired {
		t.Error("CHAOS identity queries should not request recursion")
	}
	for name, want := range map[string]bool{
		"hostname.bind": true, "ID.Server.": true, "bind": false, "x.hostname.bind": false, "id.server.nl": false,
	} {
		if IsIdentityName(MustParseName(name)) != want {
			t.Errorf("IsIdentityName(%s) = %v", name, !want)
		}
	}
}

func TestNewResponse(t *testing.T) {
	q := NewQuery(99, MustParseName("x.nl"), TypeTXT)
	r, err := NewResponse(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Response || r.ID != 99 || !r.RecursionDesired {
		t.Errorf("response header = %+v", r.Header)
	}
	if len(r.Questions) != 1 || !r.Questions[0].Name.Equal(q.Questions[0].Name) {
		t.Errorf("question not echoed: %+v", r.Questions)
	}
	if _, err := NewResponse(&Message{}); err != ErrNotAQuestion {
		t.Errorf("err = %v, want ErrNotAQuestion", err)
	}
}

func TestUnpackTruncatedInputs(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, not panic.
	for i := 0; i < len(wire); i++ {
		if _, err := Unpack(wire[:i]); err == nil {
			// Some prefixes may parse if counts happen to be zero; but
			// for this message all counts are fixed, so any prefix that
			// parses is a bug.
			t.Fatalf("prefix of %d bytes unexpectedly parsed", i)
		}
	}
}

func TestUnpackFuzzRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(100)
		buf := make([]byte, n)
		rng.Read(buf)
		// Must not panic; errors are fine.
		_, _ = Unpack(buf)
	}
}

func TestUnpackMutatedMessages(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		mut := make([]byte, len(wire))
		copy(mut, wire)
		for j := 0; j < 3; j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		_, _ = Unpack(mut) // must not panic
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		m := &Message{Header: Header{
			ID:                 uint16(i * 1000),
			Response:           i&1 != 0,
			Authoritative:      i&2 != 0,
			Truncated:          i&4 != 0,
			RecursionDesired:   i&8 != 0,
			RecursionAvailable: i&16 != 0,
			Opcode:             Opcode(i % 3),
			RCode:              RCode(i % 6),
		}}
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got.Header != m.Header {
			t.Fatalf("header round trip %d: got %+v want %+v", i, got.Header, m.Header)
		}
	}
}

func TestTypeClassStrings(t *testing.T) {
	if TypeTXT.String() != "TXT" || TypeA.String() != "A" {
		t.Error("type mnemonics wrong")
	}
	if Type(9999).String() != "TYPE9999" {
		t.Errorf("unknown type = %q", Type(9999).String())
	}
	if tt, err := ParseType("TXT"); err != nil || tt != TypeTXT {
		t.Errorf("ParseType: %v %v", tt, err)
	}
	if _, err := ParseType("NOPE"); err == nil {
		t.Error("ParseType(NOPE) should fail")
	}
	if ClassINET.String() != "IN" || ClassCHAOS.String() != "CH" || Class(77).String() != "CLASS77" {
		t.Error("class mnemonics wrong")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(15).String() != "RCODE15" {
		t.Error("rcode mnemonics wrong")
	}
	if OpcodeQuery.String() != "QUERY" || Opcode(7).String() != "OPCODE7" {
		t.Error("opcode mnemonics wrong")
	}
}

func TestMessageSummary(t *testing.T) {
	m := sampleMessage()
	s := m.Summary()
	for _, want := range []string{"response", "NOERROR", "TXT"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	q := NewQuery(1, MustParseName("a.nl"), TypeA)
	if !strings.Contains(q.Summary(), "query") {
		t.Errorf("query summary = %q", q.Summary())
	}
}

func TestRRString(t *testing.T) {
	rr := RR{Name: MustParseName("example.nl"), Class: ClassINET, TTL: 5,
		Data: TXT{Strings: []string{"hi"}}}
	s := rr.String()
	for _, want := range []string{"example.nl.", "IN", "TXT", `"hi"`} {
		if !strings.Contains(s, want) {
			t.Errorf("RR string %q missing %q", s, want)
		}
	}
	if (RR{}).Type() != TypeNone {
		t.Error("empty RR type should be TypeNone")
	}
}

func TestPackRRWithoutData(t *testing.T) {
	m := &Message{Answers: []RR{{Name: Root}}}
	if _, err := m.Pack(); err == nil {
		t.Error("packing RR without rdata should fail")
	}
}

func TestTXTEmptyAndOversize(t *testing.T) {
	// Empty TXT still encodes one zero-length string.
	m := &Message{Answers: []RR{{Name: Root, Class: ClassINET, Data: TXT{}}}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	txt := got.Answers[0].Data.(TXT)
	if len(txt.Strings) != 1 || txt.Strings[0] != "" {
		t.Errorf("empty TXT round trip = %#v", txt)
	}
	// Oversize strings are truncated to 255, not corrupted.
	m = &Message{Answers: []RR{{Name: Root, Class: ClassINET,
		Data: TXT{Strings: []string{strings.Repeat("z", 300)}}}}}
	wire, err = m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Data.(TXT).Strings[0] != strings.Repeat("z", 255) {
		t.Error("oversize TXT should truncate to 255")
	}
}

func BenchmarkPackMessage(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackMessage(b *testing.B) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}
