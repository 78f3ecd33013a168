package flowtable

import (
	"reflect"
	"testing"
)

// The protocol and transport-port setters. No APPLE rule matches these
// fields, but the matcher differentials and fuzz targets cover them.

// WithProto returns m matching IP protocol v.
func (m Match) WithProto(v uint8) Match { m.proto, m.set = v, m.set|FieldProto; return m }

// WithSrcPort returns m matching transport source port v.
func (m Match) WithSrcPort(v uint16) Match { m.srcPort, m.set = v, m.set|FieldSrcPort; return m }

// WithDstPort returns m matching transport destination port v.
func (m Match) WithDstPort(v uint16) Match { m.dstPort, m.set = v, m.set|FieldDstPort; return m }

// TestMatchGetters: each getter reports its own field's value and
// presence bit and nothing else's. On the zero Match every getter reports
// a wildcard holding its zero value. With one field set, that field is
// concrete at the value set — at its zero value too — and every other
// field is still a wildcard. install_digests.txt is written through these
// getters, so a getter reading the wrong field or bit would rewrite it.
func TestMatchGetters(t *testing.T) {
	get := func(v any, ok bool) (any, bool) { return v, ok }
	fields := []struct {
		name      string
		set, zero func(Match) Match
		get       func(Match) (any, bool)
		want      any
	}{
		{"HostTag", func(m Match) Match { return m.WithHostTag(7) }, func(m Match) Match { return m.WithHostTag(0) },
			func(m Match) (any, bool) { return get(m.HostTag()) }, uint16(7)},
		{"SubTag", func(m Match) Match { return m.WithSubTag(5) }, func(m Match) Match { return m.WithSubTag(0) },
			func(m Match) (any, bool) { return get(m.SubTag()) }, uint8(5)},
		{"InPort", func(m Match) Match { return m.WithInPort(3) }, func(m Match) Match { return m.WithInPort(0) },
			func(m Match) (any, bool) { return get(m.InPort()) }, 3},
		{"Src", func(m Match) Match { return m.WithSrc(Prefix{Addr: 10 << 24, Len: 8}) }, func(m Match) Match { return m.WithSrc(Prefix{}) },
			func(m Match) (any, bool) { return get(m.Src()) }, Prefix{Addr: 10 << 24, Len: 8}},
		{"Dst", func(m Match) Match { return m.WithDst(Prefix{Addr: 172 << 24, Len: 12}) }, func(m Match) Match { return m.WithDst(Prefix{}) },
			func(m Match) (any, bool) { return get(m.Dst()) }, Prefix{Addr: 172 << 24, Len: 12}},
		{"Proto", func(m Match) Match { return m.WithProto(17) }, func(m Match) Match { return m.WithProto(0) },
			func(m Match) (any, bool) { return get(m.Proto()) }, uint8(17)},
		{"SrcPort", func(m Match) Match { return m.WithSrcPort(1024) }, func(m Match) Match { return m.WithSrcPort(0) },
			func(m Match) (any, bool) { return get(m.SrcPort()) }, uint16(1024)},
		{"DstPort", func(m Match) Match { return m.WithDstPort(443) }, func(m Match) Match { return m.WithDstPort(0) },
			func(m Match) (any, bool) { return get(m.DstPort()) }, uint16(443)},
	}
	for i, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			if v, ok := f.get(Match{}); ok || !reflect.ValueOf(v).IsZero() {
				t.Errorf("zero Match: %s() = %v, %v; want a zero wildcard", f.name, v, ok)
			}
			m := f.set(Match{})
			if v, ok := f.get(m); !ok || v != f.want {
				t.Errorf("%s() = %v, %v; want %v, true", f.name, v, ok, f.want)
			}
			if v, ok := f.get(f.zero(Match{})); !ok || !reflect.ValueOf(v).IsZero() {
				t.Errorf("set to its zero value: %s() = %v, %v; want zero, true", f.name, v, ok)
			}
			for j, g := range fields {
				if j == i {
					continue
				}
				if v, ok := g.get(m); ok || !reflect.ValueOf(v).IsZero() {
					t.Errorf("only %s set: %s() = %v, %v; want a zero wildcard", f.name, g.name, v, ok)
				}
			}
		})
	}
}
