// JavaScript-engine JIT model (the browser half of the study, §4.3 / §5.4).
//
// Production JS engines mitigate Spectre V1 *inside generated code*:
//   * index masking — a cmov before every array access zeroes the index
//     when it is out of bounds, so a speculative access cannot run ahead of
//     the bounds check (SpiderMonkey);
//   * object guards — a cmov zeroes the object pointer when the shape check
//     fails, preventing speculative type confusion;
//   * pointer poisoning & friends ("other JavaScript") — heap pointers are
//     stored XOR-ed with a poison value and unpoisoned on load, putting an
//     ALU dependency on every pointer chase.
// The paper's Octane 2 costs of the first two are in
// src/cpu/paper_expectations.h.
//
// JsEmitter emits JS-level operations (array element access, shape-guarded
// field access, poisoned pointer loads) into a ProgramBuilder, inserting the
// mitigation sequences according to JitConfig — the mechanism by which
// Figure 3's overheads arise.
//
// Register convention for emitted code: user value registers r0..r7;
// the emitter clobbers r11..r14 as guard/scratch registers.
#ifndef SPECTREBENCH_SRC_JIT_JIT_H_
#define SPECTREBENCH_SRC_JIT_JIT_H_

#include <cstdint>
#include <vector>

#include "src/isa/program.h"
#include "src/uarch/machine.h"

namespace specbench {

// Spectre mitigations applied by the JIT when compiling.
struct JitConfig {
  bool index_masking = true;
  bool object_guards = true;
  bool pointer_poisoning = true;
  // Speculative Load Hardening (paper §2, [Carruth 2018]): instead of the
  // targeted mitigations above, make *every* load's address data-depend on
  // the current guard predicate, so no load issues under misspeculation.
  // Complete but considerably more expensive; off by default.
  bool speculative_load_hardening = false;

  static JitConfig AllOn() { return JitConfig{}; }
  static JitConfig AllOff() { return JitConfig{false, false, false, false}; }
  static JitConfig SlhOnly() { return JitConfig{false, false, false, true}; }
};

// The poison constant XOR-ed into stored heap pointers when pointer
// poisoning is on.
inline constexpr uint64_t kJsPointerPoison = 0x2bad2bad00000000ULL;

// In-memory layouts. An array is [length][elem0][elem1]...; an object is
// [shape][field0][field1]...
inline constexpr int64_t kArrayLengthOffset = 0;
inline constexpr int64_t kArrayElemsOffset = 8;
inline constexpr int64_t kObjectShapeOffset = 0;
inline constexpr int64_t kObjectFieldsOffset = 8;

// Emits JS-level operations with the configured mitigation sequences.
class JsEmitter {
 public:
  JsEmitter(ProgramBuilder& builder, const JitConfig& config);

  // dst = array[idx]; out-of-bounds committed accesses yield 0 (the engine
  // would bail out; we model the safe result).
  void GetElem(uint8_t dst, uint8_t array, uint8_t idx);
  // array[idx] = src (bounds-checked the same way).
  void SetElem(uint8_t array, uint8_t idx, uint8_t src);
  // dst = obj.field[k] under a shape guard; mismatch yields 0.
  void GetField(uint8_t dst, uint8_t obj, int field, int64_t shape);
  void SetField(uint8_t obj, int field, int64_t shape, uint8_t src);
  // dst = *(slot) where the slot holds a (possibly poisoned) heap pointer.
  void LoadHeapPtr(uint8_t dst, uint8_t base, int64_t disp);
  // Under speculative load hardening, initialises the guard predicate to
  // "true" at function entry. Must be emitted before the first hardened
  // access when SLH is enabled (no-op otherwise).
  void SlhPrologue();

  ProgramBuilder& builder() { return builder_; }
  const JitConfig& config() const { return config_; }

  // Instrumentation: how many mitigation instructions were inserted (used
  // by tests to confirm the passes actually fire).
  int mitigation_instructions() const { return mitigation_instructions_; }

 private:
  // Emits the index-masking cmov; returns the register holding the masked
  // index (a scratch so the caller's index register survives).
  uint8_t MaskIndex(uint8_t idx, uint8_t len_reg);
  uint8_t GuardObject(uint8_t obj, uint8_t shape_reg, int64_t shape);
  // SLH: returns a scratch holding `base` masked by the guard predicate.
  uint8_t HardenBase(uint8_t base);

  ProgramBuilder& builder_;
  JitConfig config_;
  int mitigation_instructions_ = 0;
};

// Helpers for setting up JS heap objects in simulated memory (call after the
// kernel/machine is finalized, before running).
class JsHeap {
 public:
  // Allocates from [base, base+bytes) in the (already mapped) address space.
  JsHeap(uint64_t base_vaddr, uint64_t bytes);

  // Returns the array base vaddr; elements initialised via `values`.
  uint64_t AllocArray(Machine& m, const std::vector<uint64_t>& values);
  uint64_t AllocArrayN(Machine& m, uint64_t length, uint64_t fill);
  // Returns the object base vaddr.
  uint64_t AllocObject(Machine& m, uint64_t shape, const std::vector<uint64_t>& fields);
  // Writes a heap pointer into a slot, poisoned per `config`.
  void StorePtr(Machine& m, uint64_t slot_vaddr, uint64_t ptr, const JitConfig& config);

  uint64_t bytes_used() const { return next_ - base_; }

 private:
  uint64_t base_;
  uint64_t end_;
  uint64_t next_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_JIT_JIT_H_
