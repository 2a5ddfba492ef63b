#include "calibrate.h"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <ctime>
#include <functional>
#include <stdexcept>
#include <utility>

namespace dcpim::perfbench {

namespace {

constexpr std::size_t kRecords = std::size_t{1} << 15;  // x 128 B = 4 MiB
constexpr int kPending = 1 << 14;
constexpr std::uint64_t kEvents = 200'000;

struct Record {
  std::array<std::uint64_t, 16> words;
};

using Step = std::uint64_t (*)(Record&, std::uint64_t);

template <int kMul>
std::uint64_t step(Record& r, std::uint64_t s) {
  for (std::uint64_t& w : r.words) {
    s = s * 6364136223846793005ULL + w + kMul;
    if ((s >> 61) == kMul % 8) w ^= s;
  }
  return s;
}

constexpr std::array<Step, 4> kSteps = {step<1>, step<3>, step<5>, step<7>};

}  // namespace

double cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

Calibration calibrate() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Straight from the kernel, not malloc: a freed multi-MiB malloc block
  // raises glibc's mmap threshold and would change how the simulation
  // that follows allocates.
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, record)
  const std::size_t bytes =
      kRecords * sizeof(Record) + (kPending + 1) * sizeof(Event);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("mmap");
  Record* records = static_cast<Record*>(mem);
  Event* heap = reinterpret_cast<Event*>(records + kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    for (std::uint64_t& w : records[i].words) w = next();
  }
  const std::greater<> later;
  for (int i = 0; i < kPending; ++i) {
    heap[i] = {next() % 100'000, static_cast<std::uint32_t>(next() % kRecords)};
    std::push_heap(heap, heap + i + 1, later);
  }

  const double t0 = cpu_seconds();
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    std::pop_heap(heap, heap + kPending, later);
    const Event e = heap[kPending - 1];
    const std::uint64_t s =
        kSteps[e.first % kSteps.size()](records[e.second], e.first);
    sum += s;
    const std::uint64_t to = (e.second * 2654435761ULL + next()) % kRecords;
    heap[kPending - 1] = {e.first + 1 + s % 5'000,
                          static_cast<std::uint32_t>(to)};
    std::push_heap(heap, heap + kPending, later);
  }
  const double cpu_s = cpu_seconds() - t0;
  munmap(mem, bytes);
  return {cpu_s, sum};
}

}  // namespace dcpim::perfbench
