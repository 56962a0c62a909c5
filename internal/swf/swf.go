// Package swf implements a synthetic Flash container format and a tiny
// ActionScript-like virtual machine — the reproduction's stand-in for the
// SWF decompilation pipeline of §V-D.
//
// The paper found malicious Flash files (flagged BehavesLike.JS.
// ExploitBlacole) that, once decompiled, revealed an invisible full-page
// click-catcher making ExternalInterface calls into obfuscated JavaScript
// to pop advertisement windows. Real SWF is a sprawling legacy format; this
// package defines a faithful miniature: a tagged binary container with a
// string pool (optionally XOR-obfuscated, so static strings dumps see
// junk), click-area geometry tags, and a stack bytecode with the operations
// that matter for the malware behaviours under study (allowDomain, stage
// scale mode, display state, event listeners, ExternalInterface.call,
// getURL navigation).
//
// The web generator assembles both benign movies and the AdFlash-style
// click-jacker with this package; the heuristic scanner decompiles and
// executes them in the VM to extract behaviour.
package swf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// appendTag serializes one [type u16][length u32][payload] tag.
func appendTag(b []byte, tagType uint16, payload []byte) []byte {
	b = appendU16(b, tagType)
	b = appendU32(b, uint32(len(payload)))
	return append(b, payload...)
}

// Magic identifies the container ("FWS" plus our simulator version).
var Magic = [4]byte{'F', 'W', 'S', '1'}

// Tag types.
const (
	TagEnd      uint16 = 0
	TagMetadata uint16 = 1
	TagShape    uint16 = 2
	TagScript   uint16 = 3
	TagClick    uint16 = 4
)

// Opcodes for the script tag's bytecode.
const (
	OpEnd          byte = 0
	OpPushStr      byte = 1 // operand: u16 string-pool index
	OpPushNum      byte = 2 // operand: f64
	OpAllowDomain  byte = 3 // pops domain string
	OpSetScaleMode byte = 4 // pops mode string
	OpDisplayState byte = 5 // pops state string ("fullScreen"/"normal")
	OpListen       byte = 6 // operands: u16 event str idx, u16 handler segment
	OpExternalCall byte = 7 // operand: u8 argc; pops argc args then name
	OpNavigate     byte = 8 // pops URL (getURL analog)
	OpPop          byte = 9
)

// Errors.
var (
	ErrBadMagic  = errors.New("swf: bad magic")
	ErrTruncated = errors.New("swf: truncated file")
	ErrBadScript = errors.New("swf: malformed script tag")
)

// Movie is a decoded file.
type Movie struct {
	// Width and Height are the stage size in pixels.
	Width, Height int
	// Metadata holds the TagMetadata key/value pairs.
	Metadata map[string]string
	// Shapes counts opaque drawing tags (benign content).
	Shapes int
	// Clicks lists click-catcher areas.
	Clicks []ClickArea
	// Script is the decoded bytecode program, or nil.
	Script *Script
}

// ClickArea is a TagClick payload: a rectangular mouse-capture region.
// Alpha 0 with a stage-sized rectangle is the invisible full-page
// click-catcher signature.
type ClickArea struct {
	X, Y, W, H int
	// Alpha is opacity in [0,255]; 0 is fully transparent.
	Alpha byte
}

// FullPageInvisible reports whether the area covers the whole stage at
// (near-)zero opacity.
func (c ClickArea) FullPageInvisible(stageW, stageH int) bool {
	return c.Alpha <= 8 && c.X <= 0 && c.Y <= 0 && c.W >= stageW && c.H >= stageH
}

// Script is a decoded bytecode program.
type Script struct {
	// Pool is the decoded string pool.
	Pool []string
	// Obfuscated records whether the pool was XOR-encoded in the file.
	Obfuscated bool
	// Segments holds code segments; segment 0 is main, the rest are event
	// handlers.
	Segments [][]byte
}

// --- assembling ---

// Builder assembles a Movie into bytes.
type Builder struct {
	width, height int
	meta          map[string]string
	shapes        int
	clicks        []ClickArea
	script        *ScriptBuilder
}

// NewBuilder starts a movie with the given stage size.
func NewBuilder(width, height int) *Builder {
	return &Builder{width: width, height: height, meta: make(map[string]string)}
}

// Meta sets a metadata key.
func (b *Builder) Meta(k, v string) *Builder {
	b.meta[k] = v
	return b
}

// AddClickArea appends a click-catcher region.
func (b *Builder) AddClickArea(c ClickArea) *Builder {
	b.clicks = append(b.clicks, c)
	return b
}

// Script attaches a script builder (one per movie).
func (b *Builder) Script(sb *ScriptBuilder) *Builder {
	b.script = sb
	return b
}

// ScriptBuilder assembles bytecode with a string pool.
type ScriptBuilder struct {
	pool     []string
	poolIdx  map[string]uint16
	segments [][]byte
	xorKey   byte // 0 = plaintext pool
}

// NewScript returns an empty script builder with one (main) segment.
func NewScript() *ScriptBuilder {
	return &ScriptBuilder{poolIdx: make(map[string]uint16), segments: [][]byte{nil}}
}

// Obfuscate enables XOR pool encoding with key (key 0 keeps plaintext).
func (sb *ScriptBuilder) Obfuscate(key byte) *ScriptBuilder {
	sb.xorKey = key
	return sb
}

// maxPoolStrings is the string-pool capacity: pool indices travel as
// 16-bit little-endian operands in OpPushStr, so a pool can address at
// most 65,536 distinct strings.
const maxPoolStrings = 1 << 16

func (sb *ScriptBuilder) intern(s string) uint16 {
	if idx, ok := sb.poolIdx[s]; ok {
		return idx
	}
	// Interning past the operand width would silently truncate the index
	// and alias an earlier pool string — every OpPushStr of the new string
	// would push the wrong value. Fail loudly instead.
	if len(sb.pool) >= maxPoolStrings {
		panic(fmt.Sprintf("swf: string pool full (%d strings): pool indices are uint16 and cannot address more", maxPoolStrings))
	}
	idx := uint16(len(sb.pool))
	sb.pool = append(sb.pool, s)
	sb.poolIdx[s] = idx
	return idx
}

// NewSegment opens a new handler segment and returns its index.
func (sb *ScriptBuilder) NewSegment() int {
	sb.segments = append(sb.segments, nil)
	return len(sb.segments) - 1
}

func (sb *ScriptBuilder) emit(seg int, bytes ...byte) *ScriptBuilder {
	sb.segments[seg] = append(sb.segments[seg], bytes...)
	return sb
}

// PushStr pushes a pool string in segment seg.
func (sb *ScriptBuilder) PushStr(seg int, s string) *ScriptBuilder {
	idx := sb.intern(s)
	return sb.emit(seg, OpPushStr, byte(idx), byte(idx>>8))
}

// AllowDomain emits Security.allowDomain(domain).
func (sb *ScriptBuilder) AllowDomain(seg int, domain string) *ScriptBuilder {
	return sb.PushStr(seg, domain).emit(seg, OpAllowDomain)
}

// SetScaleMode emits stage.scaleMode = mode.
func (sb *ScriptBuilder) SetScaleMode(seg int, mode string) *ScriptBuilder {
	return sb.PushStr(seg, mode).emit(seg, OpSetScaleMode)
}

// DisplayState emits stage.displayState = state.
func (sb *ScriptBuilder) DisplayState(seg int, state string) *ScriptBuilder {
	return sb.PushStr(seg, state).emit(seg, OpDisplayState)
}

// Listen emits addEventListener(event, handler-segment).
func (sb *ScriptBuilder) Listen(seg int, event string, handlerSeg int) *ScriptBuilder {
	idx := sb.intern(event)
	return sb.emit(seg, OpListen, byte(idx), byte(idx>>8), byte(handlerSeg), byte(handlerSeg>>8))
}

// ExternalCall emits ExternalInterface.call(name, args...). Push name
// first, then args, then call with argc.
func (sb *ScriptBuilder) ExternalCall(seg int, name string, args ...string) *ScriptBuilder {
	sb.PushStr(seg, name)
	for _, a := range args {
		sb.PushStr(seg, a)
	}
	return sb.emit(seg, OpExternalCall, byte(len(args)))
}

// Encode serializes the movie.
func (b *Builder) Encode() []byte {
	var out []byte
	out = append(out, Magic[:]...)
	out = appendU16(out, uint16(b.width))
	out = appendU16(out, uint16(b.height))
	// Metadata tags, in sorted key order for determinism.
	for _, kv := range sortedMeta(b.meta) {
		payload := appendStr(nil, kv[0])
		payload = appendStr(payload, kv[1])
		out = appendTag(out, TagMetadata, payload)
	}
	for i := 0; i < b.shapes; i++ {
		out = appendTag(out, TagShape, []byte{byte(i)})
	}
	for _, c := range b.clicks {
		payload := make([]byte, 0, 17)
		payload = appendU32(payload, uint32(int32(c.X)))
		payload = appendU32(payload, uint32(int32(c.Y)))
		payload = appendU32(payload, uint32(int32(c.W)))
		payload = appendU32(payload, uint32(int32(c.H)))
		payload = append(payload, c.Alpha)
		out = appendTag(out, TagClick, payload)
	}
	if b.script != nil {
		out = appendTag(out, TagScript, b.script.encode())
	}
	out = appendTag(out, TagEnd, nil)
	return out
}

func sortedMeta(m map[string]string) [][2]string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort; metadata maps are tiny
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([][2]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, [2]string{k, m[k]})
	}
	return out
}

func (sb *ScriptBuilder) encode() []byte {
	var out []byte
	out = append(out, sb.xorKey)
	out = appendU16(out, uint16(len(sb.pool)))
	for _, s := range sb.pool {
		enc := []byte(s)
		if sb.xorKey != 0 {
			enc = xorBytes(enc, sb.xorKey)
		}
		out = appendU16(out, uint16(len(enc)))
		out = append(out, enc...)
	}
	out = appendU16(out, uint16(len(sb.segments)))
	for _, seg := range sb.segments {
		code := append(append([]byte(nil), seg...), OpEnd)
		out = appendU32(out, uint32(len(code)))
		out = append(out, code...)
	}
	return out
}

func xorBytes(b []byte, key byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = c ^ key
	}
	return out
}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendStr(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// --- decoding ---

type reader struct {
	data []byte
	pos  int
}

func (r *reader) u8() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, ErrTruncated
	}
	v := r.data[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.pos+2 > len(r.data) {
		return 0, ErrTruncated
	}
	v := uint16(r.data[r.pos]) | uint16(r.data[r.pos+1])<<8
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.data) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, ErrTruncated
	}
	v := r.data[r.pos : r.pos+n]
	r.pos += n
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	return string(b), err
}

// Decode parses a movie.
func Decode(data []byte) (*Movie, error) {
	r := &reader{data: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != Magic {
		return nil, ErrBadMagic
	}
	w, err := r.u16()
	if err != nil {
		return nil, err
	}
	h, err := r.u16()
	if err != nil {
		return nil, err
	}
	m := &Movie{Width: int(w), Height: int(h), Metadata: make(map[string]string)}
	for {
		tagType, err := r.u16()
		if err != nil {
			return nil, err
		}
		length, err := r.u32()
		if err != nil {
			return nil, err
		}
		payload, err := r.bytes(int(length))
		if err != nil {
			return nil, err
		}
		switch tagType {
		case TagEnd:
			return m, nil
		case TagMetadata:
			pr := &reader{data: payload}
			k, err := pr.str()
			if err != nil {
				return nil, err
			}
			v, err := pr.str()
			if err != nil {
				return nil, err
			}
			m.Metadata[k] = v
		case TagShape:
			m.Shapes++
		case TagClick:
			pr := &reader{data: payload}
			x, err1 := pr.u32()
			y, err2 := pr.u32()
			cw, err3 := pr.u32()
			ch, err4 := pr.u32()
			a, err5 := pr.u8()
			if err := firstErr(err1, err2, err3, err4, err5); err != nil {
				return nil, err
			}
			m.Clicks = append(m.Clicks, ClickArea{
				X: int(int32(x)), Y: int(int32(y)), W: int(int32(cw)), H: int(int32(ch)), Alpha: a,
			})
		case TagScript:
			s, err := decodeScript(payload)
			if err != nil {
				return nil, err
			}
			m.Script = s
		default:
			// Unknown tags are skipped, as real SWF parsers do.
		}
	}
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func decodeScript(payload []byte) (*Script, error) {
	r := &reader{data: payload}
	key, err := r.u8()
	if err != nil {
		return nil, err
	}
	nPool, err := r.u16()
	if err != nil {
		return nil, err
	}
	s := &Script{Obfuscated: key != 0}
	for i := 0; i < int(nPool); i++ {
		n, err := r.u16()
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(int(n))
		if err != nil {
			return nil, err
		}
		if key != 0 {
			b = xorBytes(b, key)
		}
		s.Pool = append(s.Pool, string(b))
	}
	nSeg, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nSeg == 0 || nSeg > 256 {
		return nil, ErrBadScript
	}
	for i := 0; i < int(nSeg); i++ {
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		code, err := r.bytes(int(n))
		if err != nil {
			return nil, err
		}
		s.Segments = append(s.Segments, append([]byte(nil), code...))
	}
	return s, nil
}
