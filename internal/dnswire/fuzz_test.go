package dnswire

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseMessage drives Unpack with arbitrary wire bytes and checks
// the decoder's core contract: anything it accepts must re-encode
// (unknown RR types survive as Raw), the re-encoding must parse to the
// same header, section shape and names (compared case-insensitively),
// and packing must be a fixpoint —
// Pack(Unpack(Pack(m))) is byte-identical to Pack(m). The servers sit
// on this path for every hostile packet the soak tests throw, so the
// decoder must never panic and never accept what it cannot re-emit.
func FuzzParseMessage(f *testing.F) {
	q := NewQuery(0x1234, MustParseName("www.ourtestdomain.nl."), TypeA)
	q.SetEDNS0(DefaultEDNSSize, true)
	if b, err := q.Pack(); err == nil {
		f.Add(b)
	}
	resp, _ := NewResponse(q)
	if resp != nil {
		resp.Answers = append(resp.Answers, RR{
			Name: MustParseName("www.ourtestdomain.nl."), Class: ClassINET, TTL: 300,
			Data: CNAME{Target: MustParseName("ns1.ourtestdomain.nl.")},
		}, RR{
			Name: MustParseName("ns1.ourtestdomain.nl."), Class: ClassINET, TTL: 300,
			Data: Raw{RRType: 99, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		})
		if b, err := resp.Pack(); err == nil {
			f.Add(b)
		}
	}
	// Two questions a\.b.c and a.b\.c: distinct names whose joined
	// presentation forms collide.
	f.Add([]byte("\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00" +
		"\x03a.b\x01c\x00\x00\x01\x00\x01" + "\x01a\x03b.c\x00\x00\x01\x00\x01"))
	f.Add([]byte{})                                            // empty
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0})          // header claims a question
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xc0, 0}) // self-pointing compression

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		// The decoder's name cache only shares strings: decoding every
		// name in full must accept the same input and yield the same
		// bytes.
		plain, perr := unpack(data, nil)
		if (err == nil) != (perr == nil) {
			t.Fatalf("name cache changes acceptance: %v vs %v", err, perr)
		}
		if err != nil {
			return
		}
		for i, n := range messageNames(plain) {
			if cached := messageNames(m)[i]; cached.wire != n.wire {
				t.Fatalf("name %d decodes as %q with the cache, %q without", i, cached.wire, n.wire)
			}
		}
		packed, err := m.Pack()
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		m2, err := Unpack(packed)
		if err != nil {
			t.Fatalf("re-encoded message does not parse: %v", err)
		}
		if m2.Header != m.Header {
			t.Fatalf("header changed across round-trip: %+v vs %+v", m.Header, m2.Header)
		}
		if len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) ||
			len(m2.Authority) != len(m.Authority) || len(m2.Additional) != len(m.Additional) {
			t.Fatalf("section counts changed across round-trip")
		}
		// Every name must survive the trip. Equal is case-insensitive
		// because a compression pointer to an earlier spelling of the
		// same name may change its case.
		names, names2 := messageNames(m), messageNames(m2)
		if len(names) != len(names2) {
			t.Fatalf("name count changed across round-trip: %d vs %d", len(names), len(names2))
		}
		for i := range names {
			if !names[i].Equal(names2[i]) {
				t.Fatalf("name %d changed across round-trip: %q vs %q", i, names[i].wire, names2[i].wire)
			}
		}
		packed2, err := m2.Pack()
		if err != nil {
			t.Fatalf("second Pack failed: %v", err)
		}
		if !bytes.Equal(packed, packed2) {
			t.Fatalf("Pack is not a fixpoint:\n%x\n%x", packed, packed2)
		}
	})
}

// messageNames lists every name in m in wire order: question names,
// then each record's owner followed by the names in its rdata.
func messageNames(m *Message) []Name {
	var out []Name
	for _, q := range m.Questions {
		out = append(out, q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			out = append(out, rr.Name)
			switch d := rr.Data.(type) {
			case NS:
				out = append(out, d.Host)
			case CNAME:
				out = append(out, d.Target)
			case PTR:
				out = append(out, d.Target)
			case MX:
				out = append(out, d.Host)
			case SOA:
				out = append(out, d.MName, d.RName)
			}
		}
	}
	return out
}

// corpusSeeds loads the checked-in seed inputs of another fuzz target
// so sibling targets can share one corpus of interesting wire bytes.
// Each seed file is Go's "go test fuzz v1" encoding: one quoted
// []byte literal per argument line.
func corpusSeeds(f *testing.F, target string) [][]byte {
	f.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("shared corpus %s: %v", dir, err)
	}
	var seeds [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				f.Fatalf("corpus seed %s: %v", e.Name(), err)
			}
			seeds = append(seeds, []byte(lit))
		}
	}
	if len(seeds) == 0 {
		f.Fatalf("shared corpus %s: no seeds decoded", dir)
	}
	return seeds
}

// FuzzAppendPack drives the zero-allocation encoder the servers use
// with pooled buffers, reusing FuzzParseMessage's corpus as the
// source of messages. The contract under test is position
// independence: AppendPack must leave an arbitrary dst prefix
// untouched and emit exactly the bytes Pack would, wherever the
// message lands — compression pointers are message-relative, so a
// pooled buffer or a TCP length prefix must never leak into the
// encoding. Back-to-back appends into one buffer (the TCP path) must
// hold the same way.
func FuzzAppendPack(f *testing.F) {
	for _, seed := range corpusSeeds(f, "FuzzParseMessage") {
		f.Add(seed, uint8(0))
		f.Add(seed, uint8(13))
	}

	f.Fuzz(func(t *testing.T, data []byte, prefixLen uint8) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		packed, err := m.Pack()
		if err != nil {
			t.Fatalf("accepted message does not Pack: %v", err)
		}

		prefix := bytes.Repeat([]byte{0xA5}, int(prefixLen))
		out, err := m.AppendPack(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("AppendPack failed where Pack succeeded: %v", err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("AppendPack rewrote the dst prefix: %x", out[:len(prefix)])
		}
		if !bytes.Equal(out[len(prefix):], packed) {
			t.Fatalf("encoding depends on buffer position:\nat %d: %x\nat 0:  %x",
				len(prefix), out[len(prefix):], packed)
		}

		// TCP-style: a second message appended to the same buffer.
		out2, err := m.AppendPack(out)
		if err != nil {
			t.Fatalf("second AppendPack failed: %v", err)
		}
		if !bytes.Equal(out2[:len(out)], out) || !bytes.Equal(out2[len(out):], packed) {
			t.Fatal("back-to-back AppendPack corrupted the buffer")
		}
	})
}
