#include "runtime/errors.hpp"

namespace ffp {

bool err_retryable(ErrCode code) {
  switch (code) {
    case ErrCode::Overloaded:
    case ErrCode::QueueExpired:
    case ErrCode::Timeout:
    case ErrCode::ConnLost:
    case ErrCode::ShuttingDown:
      return true;
    case ErrCode::None:
    case ErrCode::BadRequest:
    case ErrCode::UnknownJob:
    case ErrCode::Forbidden:
    case ErrCode::JobFailed:
    case ErrCode::Cancelled:
    case ErrCode::Internal:
      return false;
  }
  return false;
}

std::string_view err_name(ErrCode code) {
  switch (code) {
    case ErrCode::None: return "none";
    case ErrCode::BadRequest: return "bad_request";
    case ErrCode::UnknownJob: return "unknown_job";
    case ErrCode::Forbidden: return "forbidden";
    case ErrCode::JobFailed: return "job_failed";
    case ErrCode::Cancelled: return "cancelled";
    case ErrCode::Internal: return "internal";
    case ErrCode::Overloaded: return "overloaded";
    case ErrCode::QueueExpired: return "queue_expired";
    case ErrCode::Timeout: return "timeout";
    case ErrCode::ConnLost: return "conn_lost";
    case ErrCode::ShuttingDown: return "shutting_down";
  }
  return "none";
}

ErrCode err_from_name(std::string_view name) {
  for (const ErrCode code :
       {ErrCode::BadRequest, ErrCode::UnknownJob, ErrCode::Forbidden,
        ErrCode::JobFailed, ErrCode::Cancelled, ErrCode::Internal,
        ErrCode::Overloaded, ErrCode::QueueExpired, ErrCode::Timeout,
        ErrCode::ConnLost, ErrCode::ShuttingDown}) {
    if (err_name(code) == name) return code;
  }
  return ErrCode::None;
}

}  // namespace ffp
