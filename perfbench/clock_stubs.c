/* Monotonic nanosecond clock for the benchmark's spans. The native entry
   point is [@@noalloc] with an untagged int result, so reading the clock
   allocates nothing and boxes nothing. */

#include <time.h>
#include <caml/mlvalues.h>

intnat vmkbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value vmkbench_now_ns_byte(value unit)
{
  return Val_long(vmkbench_now_ns(unit));
}
