package model

import "encoding/binary"

// State identity. Every model's Key is built from the helpers below and
// nothing else: a register appends as a zig-zag varint, a bool as one
// byte, and every variable-length section — the thread list, each heap
// array, 𝒯 and the history — is prefixed with its length. Varints are
// self-delimiting and the field layout of a model is fixed, so a key
// decodes back to its fields in exactly one way: two states share a key
// only if they agree on every encoded field, which is what lets the
// visited set stand for the states it has seen. A field left out of a key
// must be a function of the encoded ones (exchThread.viewLen is the one
// case); TestKeyExact holds this. Keys are binary and not meant to be
// read; display a state through its trace and history String methods.

// keyer is a value with a fixed key layout: a thread's registers or one
// entry of a modelled heap.
type keyer interface {
	appendKey(k []byte) []byte
}

// appendInts appends each register as a zig-zag varint.
func appendInts[I ~int | ~int64](k []byte, vs ...I) []byte {
	for _, v := range vs {
		k = binary.AppendVarint(k, int64(v))
	}
	return k
}

// appendBools appends each flag as one byte.
func appendBools(k []byte, vs ...bool) []byte {
	for _, v := range vs {
		b := byte(0)
		if v {
			b = 1
		}
		k = append(k, b)
	}
	return k
}

// appendLen appends the length prefix of a variable-length section.
func appendLen(k []byte, n int) []byte {
	return binary.AppendUvarint(k, uint64(n))
}

// appendSection appends es as a length-prefixed section.
func appendSection[E keyer](k []byte, es []E) []byte {
	k = appendLen(k, len(es))
	for _, e := range es {
		k = e.appendKey(k)
	}
	return k
}
