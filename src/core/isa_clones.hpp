#pragma once

// Runtime ISA dispatch for the hot loops of the core library: GCC emits a
// default, an AVX2 and an x86-64-v4 clone of the marked function, and an
// ifunc resolver picks one at load time. The attribute must sit on a
// concrete (non-template) function. Every clone evaluates the same source
// semantics — strict FP in the kernel TUs, exact integers elsewhere — so
// dispatch is a speed knob, never a value knob. TSan builds drop the
// clones: ifunc resolvers run during relocation, before the sanitizer
// runtime is initialised, and the instrumented resolver path segfaults
// there.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define RUPS_ISA_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define RUPS_ISA_CLONES
#endif
