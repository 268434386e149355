// Typed event records emitted by the L1D front end, the protection
// policies and the simulator. One fixed-size POD per event keeps the
// ring buffer allocation-free; the meaning of the generic payload args
// is documented per kind below.
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace dlpsim {

enum class EventKind : std::uint8_t {
  // One completed (or failed) L1D access.
  //   set/block/pc of the access, arg0 = AccessResult.
  kAccess,
  // A load was sent around the cache.
  //   set/block/pc, arg0 = BypassReason.
  kBypass,
  // A filled line was displaced by a reservation.
  //   set, block/pc of the *victim*, arg0 = 1 iff the victim was dirty.
  kEviction,
  // A miss response filled its reserved line. set/block.
  kFill,
  // A missing block was found in the Victim Tag Array (the
  // under-protection signal). set/block/pc, arg0 = credited insn id.
  kVtaHit,
  // A PDPT sample window ended and the Fig. 9 PD update ran.
  //   arg0/arg1 = mean PD x1000 before/after, arg2 = PdpTable::UpdatePath,
  //   block = the sample's global TDA hits, pc = its global VTA hits.
  kPdSample,
  // A line's protected life was (re)set to the maximum PD value, i.e.
  // the 4-bit PL field saturated. block/pc, arg0 = insn id.
  kPlSaturated,
};

const char* ToString(EventKind kind);

/// Why a load bypassed the L1D (EventKind::kBypass, arg0).
enum class BypassReason : std::uint8_t {
  kNoVictim = 0,       // set fully protected (or all ways reserved, SB)
  kResourceStall = 1,  // MSHR / miss queue / merge limit exhausted
};

struct Event {
  Cycle cycle = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
  Addr block = 0;
  Pc pc = 0;
  std::uint32_t set = 0;
  std::uint16_t sm = 0;
  EventKind kind = EventKind::kAccess;
};

}  // namespace dlpsim
