package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
)

// encodeKey returns the canonical encoding of vals (see keyEncoder) and
// its FNV-1a hash. The encoding follows pointers and reads unexported
// fields, so equal bytes mean equal inputs, and the bytes are a private
// copy no later in-place edit can reach. ok is false when a value holds
// something the encoder does not compare by value: a non-nil func, a
// map, an interface or a channel.
func encodeKey(vals ...any) (hash uint64, key []byte, ok bool) {
	var enc keyEncoder
	for _, v := range vals {
		if !enc.value(reflect.ValueOf(v)) {
			return 0, nil, false
		}
	}
	h := fnv.New64a()
	h.Write(enc.buf)
	return h.Sum64(), enc.buf, true
}

// keyEncoder writes a canonical byte encoding of a Go value built from
// scalars, strings, arrays, slices, structs and pointers (the sweep inputs
// are plain config trees). Every variable-length part is length-prefixed
// and every nilable part carries a presence byte, so distinct values of
// one static type encode to distinct bytes.
type keyEncoder struct {
	buf []byte
}

func (k *keyEncoder) u64(x uint64) { k.buf = binary.LittleEndian.AppendUint64(k.buf, x) }

func (k *keyEncoder) str(s string) {
	k.u64(uint64(len(s)))
	k.buf = append(k.buf, s...)
}

// present writes the presence byte of a nilable value and reports
// whether there is more to encode.
func (k *keyEncoder) present(v reflect.Value) bool {
	if v.IsNil() {
		k.buf = append(k.buf, 0)
		return false
	}
	k.buf = append(k.buf, 1)
	return true
}

func (k *keyEncoder) value(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		b := uint64(0)
		if v.Bool() {
			b = 1
		}
		k.u64(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		k.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		k.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		k.u64(math.Float64bits(v.Float()))
	case reflect.String:
		k.str(v.String())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !k.value(v.Index(i)) {
				return false
			}
		}
	case reflect.Slice:
		if !k.present(v) {
			return true
		}
		k.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if !k.value(v.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !k.value(v.Field(i)) {
				return false
			}
		}
	case reflect.Pointer:
		if !k.present(v) {
			return true
		}
		return k.value(v.Elem())
	case reflect.Func:
		// Only an absent func is comparable by value.
		return !k.present(v)
	default: // Complex, Map, Interface, Chan, UnsafePointer, Invalid
		return false
	}
	return true
}
