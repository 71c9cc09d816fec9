// Invariant-checking macros used throughout the library.
//
// CKP_CHECK is active in all build types: simulation results are only
// meaningful if model invariants hold, so violations must never be compiled
// out. CKP_DCHECK is for expensive checks and is compiled out in NDEBUG
// builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace ckp {

// Thrown when a checked invariant fails. Carries the failing expression and
// source location in what(), and the CKP_CHECK_MSG text alone in message()
// (empty for a plain CKP_CHECK): the part a remote client may be shown.
class CheckFailure : public std::logic_error {
 public:
  CheckFailure(const std::string& what, std::string message)
      : std::logic_error(what), message_(std::move(message)) {}

  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CKP_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str(), msg);
}

}  // namespace detail
}  // namespace ckp

#define CKP_CHECK(expr)                                                   \
  do {                                                                    \
    if (!(expr)) ::ckp::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define CKP_CHECK_MSG(expr, msg)                                        \
  do {                                                                  \
    if (!(expr)) {                                                      \
      std::ostringstream ckp_check_os_;                                 \
      ckp_check_os_ << msg;                                             \
      ::ckp::detail::check_failed(#expr, __FILE__, __LINE__,            \
                                  ckp_check_os_.str());                 \
    }                                                                   \
  } while (0)

#ifdef NDEBUG
#define CKP_DCHECK(expr) \
  do {                   \
  } while (0)
#else
#define CKP_DCHECK(expr) CKP_CHECK(expr)
#endif
