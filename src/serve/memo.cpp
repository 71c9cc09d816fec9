#include "serve/memo.hpp"

#include <sstream>

#include "store/binary_io.hpp"
#include "util/check.hpp"

namespace ckp {

namespace {

constexpr std::uint32_t kMemoKind = fourcc("SRVM");
constexpr std::uint32_t kMemoVersion = 1;

}  // namespace

std::string MemoFacts::canonical() const {
  std::ostringstream out;
  out << "algo=" << algorithm << ";ver=" << algo_version << ";";
  for (const auto& [key, value] : params) {
    out << "p." << key << "=" << value << ";";
  }
  out << graph.canonical() << ";seed=" << seed << ";max_rounds=" << max_rounds;
  return out.str();
}

std::string memo_key(const MemoFacts& facts) {
  std::ostringstream out;
  out << "memo_" << std::hex << fnv1a64(facts.canonical()) << "_"
      << facts.algorithm;
  return out.str();
}

std::optional<std::string> ResultMemo::lookup(const MemoFacts& facts) const {
  if (store_ == nullptr) return std::nullopt;
  const std::optional<std::string> bytes = store_->load(memo_key(facts));
  if (!bytes) return std::nullopt;
  try {
    return std::string(unframe_artifact(*bytes, kMemoKind, kMemoVersion));
  } catch (const CheckFailure&) {
    return std::nullopt;  // corrupt/skewed artifact = cold entry
  }
}

void ResultMemo::insert(const MemoFacts& facts,
                        const std::string& record_json) const {
  if (store_ == nullptr) return;
  store_->commit(memo_key(facts),
                 frame_artifact(kMemoKind, kMemoVersion, record_json));
}

}  // namespace ckp
