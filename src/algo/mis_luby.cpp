#include "algo/mis_luby.hpp"
#include "algo/mis_luby_program.hpp"

#include "util/check.hpp"

namespace ckp {

MisResult mis_luby(const LocalInput& input, int max_rounds,
                   const EngineOptions& options) {
  detail::LubyAlgo algo;
  const auto run = run_local(input, algo, max_rounds, nullptr, options);
  MisResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  out.in_set.resize(run.states.size());
  for (std::size_t i = 0; i < run.states.size(); ++i) {
    const std::uint64_t status = run.states[i].word >> detail::kStatusShift;
    CKP_CHECK_MSG(!out.completed || status != 0,
                  "completed run left an undecided node");
    out.in_set[i] = status == detail::kInMis ? 1 : 0;
  }
  return out;
}

}  // namespace ckp
