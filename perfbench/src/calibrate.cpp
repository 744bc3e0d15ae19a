// Host-speed reference.  Neighbours on a shared host slow this process by
// 20-40% for seconds to minutes at a time (cache and memory contention, not
// CPU steal), which moves every wall time with it.  A fixed piece of
// benchmark-owned work, timed before and after each pass and between the
// steps of a pass, measures how fast the host runs at that moment; pass
// times are scaled by it.
// String-keyed hash-table traffic is the kind of work whose slowdown tracks
// the simulator's passes; a pointer chase over a few MB overreacts and a
// register-only loop barely reacts.  The kernel must not measure the code
// under test: its table lives in static storage, it allocates nothing, and
// each sample runs it once untimed first, so neither the heap nor the cache
// contents the simulator leaves behind enter its time.
#include <array>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kKeys = 2500;
constexpr std::size_t kSlots = 4096;  // power of two; load factor 0.61
constexpr std::size_t kLookups = 10000;
constexpr std::size_t kKeyBytes = 16;

/// One open-addressing slot: a key of at most kKeyBytes characters.
struct Slot {
  std::array<char, kKeyBytes> key;
  std::uint32_t length;
  bool used;
  std::uint64_t value;
};

std::array<Slot, kSlots> table;

/// "key<i>" into `out`; returns its length.
std::size_t format_key(std::uint64_t i, char* out) {
  char digits[20];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + i % 10);
    i /= 10;
  } while (i != 0);
  std::memcpy(out, "key", 3);
  for (std::size_t d = 0; d < n; ++d) out[3 + d] = digits[n - 1 - d];
  return 3 + n;
}

/// FNV-1a.
std::uint64_t hash_key(const char* key, std::size_t length) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < length; ++i) {
    h ^= static_cast<unsigned char>(key[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// The slot holding `key`, or the empty slot where it belongs.
Slot& find_slot(const char* key, std::size_t length) {
  for (std::size_t i = hash_key(key, length) & (kSlots - 1);; i = (i + 1) & (kSlots - 1)) {
    Slot& slot = table[i];
    if (!slot.used ||
        (slot.length == length && std::memcmp(slot.key.data(), key, length) == 0)) {
      return slot;
    }
  }
}

double kernel_once() {
  const Clock::time_point start = Clock::now();
  pcs::util::Rng rng(7);
  for (Slot& slot : table) slot.used = false;
  char key[kKeyBytes];
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::size_t length = format_key(i, key);
    Slot& slot = find_slot(key, length);
    std::memcpy(slot.key.data(), key, length);
    slot.length = static_cast<std::uint32_t>(length);
    slot.used = true;
    slot.value = i;
  }
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kLookups; ++i) {
    const std::size_t length = format_key(rng.uniform_int(0, kKeys - 1), key);
    sum += find_slot(key, length).value;
  }
  const double elapsed = seconds_since(start);
  // Consume the lookups' results so the compiler keeps them; every lookup
  // hits a value below kKeys.
  if (sum > kLookups * kKeys) throw std::logic_error("reference kernel miscomputed");
  return elapsed;
}

/// Mean host seconds of one kernel run after an untimed one, repeated for
/// at least `budget` seconds (at least once).
double reference_kernel_seconds(double budget) {
  kernel_once();
  double total = 0.0;
  int runs = 0;
  do {
    total += kernel_once();
    ++runs;
  } while (total < budget);
  return total / runs;
}

}  // namespace

void SpeedSampler::sample() {
  const Clock::time_point start = Clock::now();
  const double budget =
      samples_.empty()
          ? first_budget_
          : 0.025 * std::chrono::duration<double>(start - samples_.back().end).count();
  const double kernel_s = reference_kernel_seconds(budget);
  const Clock::time_point end = Clock::now();
  if (!samples_.empty()) overhead_s_ += std::chrono::duration<double>(end - start).count();
  samples_.push_back({start, end, kernel_s});
}

void SpeedSampler::mid_pass() {
  constexpr double kMinInterval = 0.1;
  if (samples_.empty() ||
      std::chrono::duration<double>(Clock::now() - samples_.back().end).count() >= kMinInterval) {
    sample();
  }
}

double SpeedSampler::speed() const {
  double weighted = 0.0;
  double span = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const double length =
        std::chrono::duration<double>(samples_[i].start - samples_[i - 1].end).count();
    weighted += length * kReferenceKernelSeconds /
                (0.5 * (samples_[i - 1].kernel_s + samples_[i].kernel_s));
    span += length;
  }
  return span > 0.0 ? weighted / span : 1.0;
}

}  // namespace perfbench
