#include "src/server/protocol.h"

#include <algorithm>

namespace crsat {
namespace server {

namespace {

void PutU32(std::string* out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void PutU64(std::string* out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

std::uint32_t GetU32(std::string_view bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

std::uint64_t GetU64(std::string_view bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

bool IsKnownRequestType(std::uint8_t type) {
  const std::uint8_t bare = type & ~kResponseBit;
  return bare >= static_cast<std::uint8_t>(RequestType::kParse) &&
         bare <= static_cast<std::uint8_t>(RequestType::kShutdown);
}

const char* ResponseStatusToString(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kFindings:
      return "findings";
    case ResponseStatus::kBadRequest:
      return "bad-request";
    case ResponseStatus::kResource:
      return "resource-limit";
    case ResponseStatus::kProtocolError:
      return "protocol-error";
    case ResponseStatus::kOverloaded:
      return "overloaded";
    case ResponseStatus::kShuttingDown:
      return "shutting-down";
    case ResponseStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

Frame MakeRequest(RequestType type, std::string payload) {
  Frame frame;
  frame.type = static_cast<std::uint8_t>(type);
  frame.payload = std::move(payload);
  return frame;
}

Frame MakeResponse(RequestType type, ResponseStatus status,
                   std::string payload) {
  Frame frame;
  frame.type = static_cast<std::uint8_t>(type) | kResponseBit;
  frame.status = static_cast<std::uint8_t>(status);
  frame.payload = std::move(payload);
  return frame;
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  PutU32(&out, kMagic);
  out.push_back(static_cast<char>(frame.version));
  out.push_back(static_cast<char>(frame.type));
  out.push_back(static_cast<char>(frame.status));
  out.push_back(0);  // Reserved.
  PutU32(&out, frame.deadline_ms);
  PutU64(&out, frame.max_compounds);
  PutU64(&out, frame.max_memory_bytes);
  PutU32(&out, static_cast<std::uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  return out;
}

DecodeResult DecodeFrame(std::string_view buffer, Frame* frame,
                         std::size_t* consumed, std::string* error) {
  // Validate eagerly: bad magic / version / reserved are detectable from
  // the first bytes, before the full header arrives, so a garbage peer is
  // rejected without waiting for 32 bytes that may never come.
  if (!buffer.empty()) {
    static constexpr char kMagicBytes[4] = {'C', 'R', 'S', 'D'};
    const std::size_t check = std::min<std::size_t>(buffer.size(), 4);
    for (std::size_t i = 0; i < check; ++i) {
      if (buffer[i] != kMagicBytes[i]) {
        *error = "bad magic (expected \"CRSD\")";
        return DecodeResult::kError;
      }
    }
    if (buffer.size() >= 5 &&
        static_cast<std::uint8_t>(buffer[4]) != kProtocolVersion) {
      *error = "unsupported protocol version " +
               std::to_string(static_cast<unsigned>(
                   static_cast<std::uint8_t>(buffer[4]))) +
               " (speaking " + std::to_string(unsigned{kProtocolVersion}) +
               ")";
      return DecodeResult::kError;
    }
    if (buffer.size() >= 8 && buffer[7] != 0) {
      *error = "nonzero reserved byte";
      return DecodeResult::kError;
    }
  }
  if (buffer.size() < kFrameHeaderBytes) {
    return DecodeResult::kNeedMore;
  }
  const std::uint32_t payload_size = GetU32(buffer, 28);
  if (payload_size > kMaxPayloadBytes) {
    *error = "oversized payload: " + std::to_string(payload_size) +
             " bytes (cap " + std::to_string(kMaxPayloadBytes) + ")";
    return DecodeResult::kError;
  }
  if (buffer.size() < kFrameHeaderBytes + payload_size) {
    return DecodeResult::kNeedMore;
  }
  frame->version = static_cast<std::uint8_t>(buffer[4]);
  frame->type = static_cast<std::uint8_t>(buffer[5]);
  frame->status = static_cast<std::uint8_t>(buffer[6]);
  frame->deadline_ms = GetU32(buffer, 8);
  frame->max_compounds = GetU64(buffer, 12);
  frame->max_memory_bytes = GetU64(buffer, 20);
  frame->payload.assign(buffer.substr(kFrameHeaderBytes, payload_size));
  *consumed = kFrameHeaderBytes + payload_size;
  return DecodeResult::kFrame;
}

ResourceLimits ClampBudget(const Frame& request, const ResourceLimits& caps) {
  ResourceLimits limits;
  // Deadline: the tighter of the request budget and the server cap.
  if (request.deadline_ms > 0) {
    limits.timeout = std::chrono::milliseconds(request.deadline_ms);
  }
  if (caps.timeout.has_value() &&
      (!limits.timeout.has_value() || *caps.timeout < *limits.timeout)) {
    limits.timeout = caps.timeout;
  }
  if (request.max_compounds > 0) {
    limits.max_compounds = request.max_compounds;
  }
  if (caps.max_compounds.has_value() &&
      (!limits.max_compounds.has_value() ||
       *caps.max_compounds < *limits.max_compounds)) {
    limits.max_compounds = caps.max_compounds;
  }
  if (request.max_memory_bytes > 0) {
    limits.max_memory_bytes = request.max_memory_bytes;
  }
  if (caps.max_memory_bytes.has_value() &&
      (!limits.max_memory_bytes.has_value() ||
       *caps.max_memory_bytes < *limits.max_memory_bytes)) {
    limits.max_memory_bytes = caps.max_memory_bytes;
  }
  return limits;
}

}  // namespace server
}  // namespace crsat
