#include "util/logging.h"

#include <cstdio>

namespace rhchme {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal
}  // namespace rhchme
