package isa

import "strings"

// Register ID spaces. GPRs use IDs 0..31, vector registers 0..31, predicate
// registers 0..15. Flags and IP use ID 0 in their own class. x86 and
// AArch64 registers share ID spaces because a Block never mixes dialects.

var x86GPRNames = map[string]int{
	"rax": 0, "rcx": 1, "rdx": 2, "rbx": 3, "rsp": 4, "rbp": 5,
	"rsi": 6, "rdi": 7, "r8": 8, "r9": 9, "r10": 10, "r11": 11,
	"r12": 12, "r13": 13, "r14": 14, "r15": 15,
}

var x86GPR32Names = map[string]int{
	"eax": 0, "ecx": 1, "edx": 2, "ebx": 3, "esp": 4, "ebp": 5,
	"esi": 6, "edi": 7, "r8d": 8, "r9d": 9, "r10d": 10, "r11d": 11,
	"r12d": 12, "r13d": 13, "r14d": 14, "r15d": 15,
}

// ParseX86Register resolves an x86-64 register name (without the AT&T "%"
// sigil) to a Register. Unknown names return an invalid register.
func ParseX86Register(name string) Register {
	name = strings.ToLower(name)
	if id, ok := x86GPRNames[name]; ok {
		return Register{Name: name, Class: ClassGPR, ID: id, Width: 64}
	}
	if id, ok := x86GPR32Names[name]; ok {
		return Register{Name: name, Class: ClassGPR, ID: id, Width: 32}
	}
	switch {
	case strings.HasPrefix(name, "xmm"):
		if id, ok := atoi(name[3:]); ok && id >= 0 && id < 32 {
			return Register{Name: name, Class: ClassVec, ID: id, Width: 128}
		}
	case strings.HasPrefix(name, "ymm"):
		if id, ok := atoi(name[3:]); ok && id >= 0 && id < 32 {
			return Register{Name: name, Class: ClassVec, ID: id, Width: 256}
		}
	case strings.HasPrefix(name, "zmm"):
		if id, ok := atoi(name[3:]); ok && id >= 0 && id < 32 {
			return Register{Name: name, Class: ClassVec, ID: id, Width: 512}
		}
	case name == "rip":
		return Register{Name: name, Class: ClassIP, ID: 0, Width: 64}
	case name == "rflags" || name == "eflags":
		return Register{Name: name, Class: ClassFlags, ID: 0, Width: 64}
	case len(name) == 2 && name[0] == 'k' && name[1] >= '0' && name[1] <= '7':
		return Register{Name: name, Class: ClassPred, ID: int(name[1] - '0'), Width: 64}
	}
	return Register{}
}

// ParseAArch64Register resolves an AArch64 register name to a Register.
// Supported spellings: x0..x30, w0..w30, sp, xzr/wzr, d0..d31 (scalar FP),
// s0..s31, v0..v31 (NEON, optionally with ".2d"-style arrangement),
// z0..z31 (SVE), p0..p15 (SVE predicate).
func ParseAArch64Register(name string) Register {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i] // strip arrangement suffix like v3.2d, z1.d, p0.d
	}
	// Lower-casing after the cut keeps labels such as ".L0" from
	// allocating; no rune lower-cases to or from '.'.
	name = strings.ToLower(name)
	switch name {
	case "sp":
		return Register{Name: name, Class: ClassGPR, ID: 31, Width: 64}
	case "xzr", "wzr":
		// The zero register never carries dependencies; model it as a
		// distinct ID that writes are discarded to.
		return Register{Name: name, Class: ClassGPR, ID: 32, Width: 64}
	case "nzcv":
		return Register{Name: name, Class: ClassFlags, ID: 0, Width: 32}
	}
	if len(name) < 2 {
		return Register{}
	}
	num, ok := atoi(name[1:])
	if !ok || num < 0 {
		return Register{}
	}
	switch name[0] {
	case 'x':
		if num <= 30 {
			return Register{Name: name, Class: ClassGPR, ID: num, Width: 64}
		}
	case 'w':
		if num <= 30 {
			return Register{Name: name, Class: ClassGPR, ID: num, Width: 32}
		}
	case 'v':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 128}
		}
	case 'q':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 128}
		}
	case 'd':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 64}
		}
	case 's':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 32}
		}
	case 'z':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 128}
		}
	case 'p':
		if num <= 15 {
			return Register{Name: name, Class: ClassPred, ID: num, Width: 16}
		}
	}
	return Register{}
}

// IsZeroReg reports whether the register is an architectural zero register
// (writes discarded, reads yield zero, never a dependency).
func IsZeroReg(r Register) bool {
	return r.Class == ClassGPR && r.ID == 32
}
