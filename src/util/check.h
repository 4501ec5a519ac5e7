// Lightweight contract checking for the RRFD library.
//
// RRFD_REQUIRE  -- precondition on public API boundaries; always on.
// RRFD_ENSURE   -- postcondition / internal invariant; always on.
// RRFD_ASSERT   -- debug-only sanity check (compiled out in NDEBUG builds).
//
// Violations throw rrfd::ContractViolation (derived from std::logic_error)
// so tests can assert on misuse and simulations never continue from a
// corrupted state.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

namespace rrfd {

/// Thrown when a documented precondition or invariant of the library is
/// violated by the caller (or, for ENSURE, by the library itself).
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const char* kind, const char* expr, const char* file,
                    int line, const std::string& msg,
                    const std::string& context)
      : std::logic_error(std::string(kind) + " failed: (" + expr + ") at " +
                         file + ":" + std::to_string(line) +
                         (msg.empty() && context.empty() ? "" : ": ") + msg +
                         (msg.empty() || context.empty() ? "" : "\n") +
                         context),
        message_(msg.empty() ? std::string(kind) + " failed: (" + expr + ")"
                             : msg) {}

  /// The caller's message, or "<kind> failed: (<expr>)" without one. It
  /// names no source file and carries no context, so clients may see it.
  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {

/// Optional execution-context hook: when set, its output is appended to
/// every ContractViolation message. The flight recorder (src/trace)
/// installs a provider that renders the last events of its ring buffer,
/// so a mid-run blow-up carries the deliveries / scheduler choices that
/// led up to it.
using ContractContextProvider = std::string (*)();

inline std::atomic<ContractContextProvider>& contract_context_provider() {
  static std::atomic<ContractContextProvider> provider{nullptr};
  return provider;
}

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg = {}) {
  std::string context;
  if (ContractContextProvider provider =
          // rrfd-lint: allow(atomic-justified) -- captureless fn pointer
          contract_context_provider().load(std::memory_order_relaxed)) {
    context = provider();
  }
  throw ContractViolation(kind, expr, file, line, msg, context);
}

}  // namespace detail

}  // namespace rrfd

#define RRFD_REQUIRE(expr)                                                 \
  do {                                                                     \
    if (!(expr))                                                           \
      ::rrfd::detail::contract_fail("precondition", #expr, __FILE__,       \
                                    __LINE__);                             \
  } while (0)

#define RRFD_REQUIRE_MSG(expr, msg)                                        \
  do {                                                                     \
    if (!(expr))                                                           \
      ::rrfd::detail::contract_fail("precondition", #expr, __FILE__,       \
                                    __LINE__, (msg));                      \
  } while (0)

#define RRFD_ENSURE(expr)                                                  \
  do {                                                                     \
    if (!(expr))                                                           \
      ::rrfd::detail::contract_fail("invariant", #expr, __FILE__,          \
                                    __LINE__);                             \
  } while (0)

#define RRFD_ENSURE_MSG(expr, msg)                                         \
  do {                                                                     \
    if (!(expr))                                                           \
      ::rrfd::detail::contract_fail("invariant", #expr, __FILE__,          \
                                    __LINE__, (msg));                      \
  } while (0)

#ifdef NDEBUG
// sizeof keeps `expr` as an unevaluated operand: no code is generated,
// but variables that appear only in assertions still count as used
// (otherwise Release -Werror flags them as unused parameters).
#define RRFD_ASSERT(expr) ((void)sizeof((expr) ? 1 : 0))
#else
#define RRFD_ASSERT(expr)                                                  \
  do {                                                                     \
    if (!(expr))                                                           \
      ::rrfd::detail::contract_fail("assertion", #expr, __FILE__,          \
                                    __LINE__);                             \
  } while (0)
#endif
