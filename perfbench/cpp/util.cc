#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

// Every heap allocation in the benchmark binary goes through these, so
// pubsub.allocs_per_delivery counts operator new calls rather than
// modelling them. Atomic because the sharded runtime's workers allocate
// too.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* counted_aligned(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (std::max<std::size_t>(size, 1) + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double band_quantile(std::vector<double> values, double q,
                     double half_width) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto lo = static_cast<std::size_t>(std::max(0.0, (q - half_width) * n));
  auto hi = static_cast<std::size_t>(std::min(n, (q + half_width) * n));
  lo = std::min(lo, values.size() - 1);
  hi = std::max(hi, lo + 1);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Metrics::set(const std::string& name, const std::string& unit,
                  double value) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      units_[i] = unit;
      values_[i] = value;
      return;
    }
  }
  names_.push_back(name);
  units_.push_back(unit);
  values_.push_back(value);
}

void Metrics::print_table() const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::printf("  %-40s %16.6f %s\n", names_[i].c_str(), values_[i],
                units_[i].c_str());
  }
}

std::string Metrics::json() const {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const double v = std::isfinite(values_[i]) ? values_[i] : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + names_[i] + "\": {\"value\": " + number + ", \"unit\": \"" +
           units_[i] + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
