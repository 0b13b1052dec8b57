#ifndef KDDN_COMMON_THREAD_POOL_H_
#define KDDN_COMMON_THREAD_POOL_H_

namespace kddn {

/// Resizes the process-wide job executor (jobs::GlobalExecutor(),
/// common/job_executor.h) in place to `num_threads` lanes, the calling
/// thread's included. `num_threads` <= 0 restores the hardware-concurrency
/// default. No JobExecutor::Run may be in flight on it.
void SetGlobalThreadPoolSize(int num_threads);

/// Lanes of the process-wide executor, the calling thread's included
/// (creating it on first use).
int GlobalThreadPoolSize();

}  // namespace kddn

#endif  // KDDN_COMMON_THREAD_POOL_H_
