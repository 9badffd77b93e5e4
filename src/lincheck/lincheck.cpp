#include "lincheck/lincheck.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

namespace upsl::lincheck {

namespace {

/// Global order across crashes: epoch first, then the logical timestamp.
std::uint64_t order_key(std::uint64_t epoch, std::uint64_t ts) {
  return (epoch << 40) | (ts & ((1ULL << 40) - 1));
}

struct KeyHistory {
  std::vector<const Operation*> writes;
  std::vector<const Operation*> reads;
};

CheckResult violation(std::uint64_t key, const std::string& what) {
  CheckResult r;
  r.linearizable = false;
  std::ostringstream os;
  os << "key " << key << ": " << what;
  r.reason = os.str();
  return r;
}

}  // namespace

CheckResult check_strict(const std::vector<Operation>& history) {
  std::unordered_map<std::uint64_t, KeyHistory> keys;
  for (const Operation& op : history) {
    if (op.kind == OpKind::kWrite) {
      keys[op.key].writes.push_back(&op);
    } else if (op.completed) {
      keys[op.key].reads.push_back(&op);
    }
  }

  CheckResult result;
  for (auto& [key, kh] : keys) {
    result.keys_checked += 1;
    result.ops_checked += kh.writes.size() + kh.reads.size();

    // Written values must be unique (methodology requirement, §6.1.1).
    {
      std::map<std::uint64_t, int> seen;
      for (const Operation* w : kh.writes)
        if (++seen[w->arg] > 1)
          return violation(key, "duplicate written value (bad test harness)");
    }

    // Build the swap chain from completed writes: prev value -> write.
    // Pending writes may join the chain (they were allowed to take effect
    // before the crash) but are not required to.
    std::unordered_map<std::uint64_t, const Operation*> by_prev;
    for (const Operation* w : kh.writes) {
      if (!w->completed) continue;
      auto [it, inserted] = by_prev.emplace(w->ret, w);
      if (!inserted)
        return violation(key, "two completed swaps observed the same "
                              "previous value");
    }
    std::unordered_map<std::uint64_t, const Operation*> pending_by_arg;
    for (const Operation* w : kh.writes) {
      if (w->completed) continue;
      // Pending writes have no recorded ret; they may slot anywhere their
      // value is observed (the analyzer "inserts responses with inferred
      // values" for operations that appear to have taken effect, §6.2).
      pending_by_arg.emplace(w->arg, w);
    }

    // Follow the chain from the initial value. When no completed swap
    // continues the chain, a pending write may bridge the gap — it took
    // effect before the crash and its observed-previous value is inferred.
    // With several candidate bridges the order matters (two in-flight
    // writes of one crash, each observed by a later swap, can be spliced
    // in either order and only one may match real time), so every order is
    // tried and the history is legal if any resulting chain is. The first
    // chain's failure is the one reported.
    std::string first_failure;
    std::size_t chains_tried = 0;
    std::vector<const Operation*> chain;
    std::unordered_map<std::uint64_t, const Operation*> spliced;
    const auto check_chain = [&]() -> std::string {
      std::unordered_map<std::uint64_t, std::size_t> pos_of_value;
      pos_of_value[kInitialValue] = 0;
      std::size_t placed = 0;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        pos_of_value[chain[i]->arg] = i + 1;
        if (chain[i]->completed) ++placed;
      }
      if (placed != by_prev.size())
        return "completed swap not reachable in the chain (its observed "
               "previous value never existed)";

      // Real-time and epoch order along the chain.
      for (std::size_t i = 0; i < chain.size(); ++i) {
        for (std::size_t j = i + 1; j < chain.size(); ++j) {
          if (!chain[j]->completed || !chain[i]->completed) continue;
          const std::uint64_t j_resp =
              order_key(chain[j]->epoch, chain[j]->resp_ts);
          const std::uint64_t i_inv =
              order_key(chain[i]->epoch, chain[i]->inv_ts);
          if (j_resp < i_inv) return "chain order contradicts real-time order";
        }
        if (i > 0 && chain[i]->epoch < chain[i - 1]->epoch)
          return "chain order contradicts epoch order";
      }

      // Strict linearizability: an operation may not take effect after the
      // crash that interrupted it. A pending write of epoch e whose value
      // was observed must therefore linearize within epoch e — i.e.
      // everything before it in the chain must also be from epoch <= e. A
      // pending write in the chain appears as: some completed op observed
      // its value.
      for (const Operation* w : chain) {
        if (w->completed) continue;
        for (const Operation* prior : chain) {
          if (prior == w) break;
          if (prior->epoch > w->epoch)
            return "in-flight operation took effect after the crash "
                   "(strict linearizability violation)";
        }
      }

      // Reads: value must exist in the chain (or be the initial value), the
      // read's interval must intersect the value's validity window, and a
      // read cannot observe a pending write from a *later* epoch than the
      // read itself (it would have observed the future).
      for (const Operation* r : kh.reads) {
        auto pit = pos_of_value.find(r->ret);
        if (pit == pos_of_value.end()) {
          // Possibly a pending write's value that no completed swap follows.
          auto pw = pending_by_arg.find(r->ret);
          if (pw == pending_by_arg.end())
            return "read returned a value that was never written";
          const Operation* w = pw->second;
          if (order_key(w->epoch, w->inv_ts) > order_key(r->epoch, r->resp_ts))
            return "read observed a write before it was invoked";
          if (w->epoch > r->epoch)
            return "read observed a write from a later epoch";
          continue;
        }
        const std::size_t pos = pit->second;
        if (pos > 0) {
          const Operation* writer = chain[pos - 1];
          if (order_key(r->epoch, r->resp_ts) <
              order_key(writer->epoch, writer->inv_ts))
            return "read completed before its value was written";
        }
        if (pos < chain.size()) {
          const Operation* replacer = chain[pos];
          if (replacer->completed &&
              order_key(r->epoch, r->inv_ts) >
                  order_key(replacer->epoch, replacer->resp_ts))
            return "read returned a stale value after its replacement "
                   "completed";
        }
      }
      return {};
    };
    // Depth-first over bridge choices; true once some chain checks out.
    // Bounded so a pathological history cannot stall the checker.
    constexpr std::size_t kMaxChains = 4096;
    const auto extend = [&](const auto& self, std::uint64_t cur) -> bool {
      const std::size_t base = chain.size();
      while (true) {
        auto it = by_prev.find(cur);
        if (it == by_prev.end()) break;
        chain.push_back(it->second);
        cur = it->second->arg;
        if (chain.size() > kh.writes.size()) {
          if (first_failure.empty())
            first_failure = "swap chain contains a cycle";
          chain.resize(base);
          return false;
        }
      }
      // Bridge with a pending write whose value some completed swap
      // observed, earliest invocation first.
      std::vector<const Operation*> bridges;
      for (auto& [arg, p] : pending_by_arg)
        if (spliced.count(arg) == 0 && by_prev.count(arg) != 0)
          bridges.push_back(p);
      std::sort(bridges.begin(), bridges.end(),
                [](const Operation* a, const Operation* b) {
                  return order_key(a->epoch, a->inv_ts) <
                         order_key(b->epoch, b->inv_ts);
                });
      bool ok = false;
      if (bridges.empty()) {
        ++chains_tried;
        const std::string why = check_chain();
        if (why.empty()) {
          ok = true;
        } else if (first_failure.empty()) {
          first_failure = why;
        }
      }
      for (const Operation* b : bridges) {
        if (ok || chains_tried >= kMaxChains) break;
        spliced.emplace(b->arg, b);
        chain.push_back(b);
        ok = self(self, b->arg);
        chain.pop_back();
        spliced.erase(b->arg);
      }
      chain.resize(base);
      return ok;
    };
    if (!extend(extend, kInitialValue)) return violation(key, first_failure);
  }
  return result;
}

std::vector<Operation> assemble(
    const std::vector<std::vector<LogRecord>>& per_thread_records) {
  std::vector<Operation> ops;
  for (const auto& records : per_thread_records) {
    // Pair invoke/response records by per-thread sequence number; records
    // are appended in order, so a simple map suffices.
    std::unordered_map<std::uint32_t, Operation> open;
    for (const LogRecord& rec : records) {
      if (rec.kind_invoke == 1) {
        Operation op{};
        op.kind = static_cast<OpKind>(rec.op);
        op.completed = false;
        op.tid = rec.tid;
        op.key = rec.key;
        op.arg = rec.value;
        op.epoch = rec.epoch;
        op.inv_ts = rec.ts;
        open[rec.seq] = op;
      } else {
        auto it = open.find(rec.seq);
        if (it == open.end()) continue;  // response without invoke: skip
        it->second.completed = true;
        it->second.ret = rec.value;
        it->second.resp_ts = rec.ts;
        ops.push_back(it->second);
        open.erase(it);
      }
    }
    for (auto& [seq, op] : open) ops.push_back(op);  // pending at crash
  }
  return ops;
}

}  // namespace upsl::lincheck
