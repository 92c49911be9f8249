#include "mpi/transport.h"

#include <cerrno>
#include <cstdlib>
#include <exception>

#include "mpi/minimpi.h"

namespace ngsx::mpi::detail {

// ------------------------------------------------------------ error marshal

namespace {

// Strips the prefix the error class constructor re-adds, so a
// reconstructed exception's what() matches the original.
std::string strip_prefix(const std::string& msg, std::string_view prefix) {
  if (msg.size() >= prefix.size() &&
      std::string_view(msg).substr(0, prefix.size()) == prefix) {
    return msg.substr(prefix.size());
  }
  return msg;
}

}  // namespace

void ErrorInfo::rethrow() const {
  if (kind == "AbortError") {
    throw AbortError();
  }
  if (kind == "IoError") {
    throw IoError(strip_prefix(message, "ngsx I/O error: "));
  }
  if (kind == "FormatError") {
    throw FormatError(strip_prefix(message, "ngsx format error: "));
  }
  if (kind == "UsageError") {
    throw UsageError(strip_prefix(message, "ngsx usage error: "));
  }
  // "Error", "std::exception" and anything unrecognized: the base ngsx
  // family keeps run()'s "throws ngsx::Error" contract intact.
  throw Error(message);
}

ErrorInfo classify_current_exception() {
  try {
    throw;
  } catch (const AbortError&) {
    return {"AbortError", "minimpi: world aborted by a failing rank"};
  } catch (const IoError& e) {
    return {"IoError", e.what()};
  } catch (const FormatError& e) {
    return {"FormatError", e.what()};
  } catch (const UsageError& e) {
    return {"UsageError", e.what()};
  } catch (const Error& e) {
    return {"Error", e.what()};
  } catch (const std::exception& e) {
    return {"std::exception", e.what()};
  } catch (...) {
    return {"unknown", "unknown exception"};
  }
}

std::string encode_error(const ErrorInfo& info) {
  std::string out;
  uint32_t klen = static_cast<uint32_t>(info.kind.size());
  out.append(reinterpret_cast<const char*>(&klen), sizeof(klen));
  out += info.kind;
  out += info.message;
  return out;
}

ErrorInfo decode_error(std::string_view bytes) {
  if (bytes.size() < sizeof(uint32_t)) {
    return {"Error", "minimpi: truncated error record"};
  }
  uint32_t klen;
  __builtin_memcpy(&klen, bytes.data(), sizeof(klen));
  bytes.remove_prefix(sizeof(klen));
  if (klen > bytes.size()) {
    return {"Error", "minimpi: truncated error record"};
  }
  ErrorInfo info;
  info.kind = std::string(bytes.substr(0, klen));
  info.message = std::string(bytes.substr(klen));
  return info;
}

// ----------------------------------------------------------------- mailbox

void Mailbox::deliver(int src, int tag, uint32_t epoch, std::string payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[Key{epoch, src, tag}].push_back(std::move(payload));
  }
  cv_.notify_all();
}

std::string Mailbox::recv(int src, int tag, uint32_t epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  const Key key{epoch, src, tag};
  cv_.wait(lock, [&] {
    if (aborted_) {
      return true;
    }
    auto it = queues_.find(key);
    return it != queues_.end() && !it->second.empty();
  });
  if (aborted_) {
    throw AbortError();
  }
  auto& q = queues_[key];
  std::string payload = std::move(q.front());
  q.pop_front();
  return payload;
}

bool Mailbox::probe(int src, int tag, uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queues_.find(Key{epoch, src, tag});
  return it != queues_.end() && !it->second.empty();
}

void Mailbox::abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

bool Mailbox::aborted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aborted_;
}

void Mailbox::begin_epoch(uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keys sort by epoch first, so stale queues form a prefix.
  auto it = queues_.begin();
  while (it != queues_.end() && std::get<0>(it->first) < epoch) {
    it = queues_.erase(it);
  }
}

// --------------------------------------------------------------------- env

uint64_t env_u64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return def;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || parsed == 0) {
    return def;
  }
  return parsed;
}

}  // namespace ngsx::mpi::detail
