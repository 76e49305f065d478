package main

import (
	"encoding/binary"
	"fmt"
)

// profile is the part of a profile.proto message the CPU shares need:
// samples as location stacks, the functions at each location (inlined
// frames included) and the function names.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids
	funcs    map[uint64]int64    // function id -> string-table index
	strs     []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
)

// decodeProfile parses an uncompressed profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			err := walkFields(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case sampleLocationField:
					return appendUints(&s.locations, w, v, sb)
				case sampleValueField:
					var u []uint64
					if err := appendUints(&u, w, v, sb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var fns []uint64
			err := walkFields(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case locationIDField:
					id = v
				case locationLineField:
					return walkFields(sb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == lineFunctionField {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := walkFields(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case functionIDField:
					id = v
				case functionNameField:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringField:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// appendUints appends a repeated integer field in either its packed
// (length-delimited) or its unpacked (one varint per field) encoding.
func appendUints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// walkFields calls fn for every field of a protobuf message: varint
// fields carry v, length-delimited fields carry sub.
func walkFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v   uint64
			sub []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
