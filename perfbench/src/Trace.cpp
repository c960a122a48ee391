//===- perfbench/src/Trace.cpp - In-memory spans for the traced run -------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double nowSeconds() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

long SpanLog::add(std::string Name, double Start, double End, long Parent,
                  uint64_t Request) {
  std::lock_guard<std::mutex> Guard(Mutex);
  Spans.push_back({std::move(Name), Start, End, Parent, Request});
  return static_cast<long>(Spans.size() - 1);
}

void SpanLog::close(long Index, double End) {
  std::lock_guard<std::mutex> Guard(Mutex);
  if (Index >= 0 && static_cast<size_t>(Index) < Spans.size())
    Spans[Index].End = End;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Spans;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Spans.size();
}

bool SpanLog::write(const std::string &Path) const {
  std::vector<Span> Copy = spans();
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("[\n", F);
  for (size_t I = 0; I < Copy.size(); ++I) {
    const Span &S = Copy[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%ld,\"request\":%llu}%s\n",
                 I, S.Name.c_str(), S.Start, S.End, S.Parent,
                 static_cast<unsigned long long>(S.Request),
                 I + 1 < Copy.size() ? "," : "");
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

std::map<std::string, double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Children[S.Parent].push_back({S.Start, S.End});
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0.0, Reach = S.Start;
    for (auto [Lo, Hi] : C) {
      Lo = std::max(Lo, Reach);
      Hi = std::min(Hi, S.End);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    Self[S.Name] += std::max(0.0, (S.End - S.Start) - Covered);
  }
  return Self;
}

} // namespace perfbench
