// Minimal leveled logging to stderr.
//
// The library is quiet when nothing goes wrong: it logs warnings and
// errors only, and every RHCHME_LOG line is printed.

#ifndef RHCHME_UTIL_LOGGING_H_
#define RHCHME_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace rhchme {

enum class LogLevel { kWarning, kError };

namespace internal {

/// Builds one log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace rhchme

#define RHCHME_LOG(level) \
  ::rhchme::internal::LogMessage(::rhchme::LogLevel::level, __FILE__, __LINE__)

#endif  // RHCHME_UTIL_LOGGING_H_
