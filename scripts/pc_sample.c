/*
 * pc_sample.c -- a sampling host profiler that needs no perf, gdb or
 * recompilation: preload it into any dynamically linked program and
 * it records the interrupted program counter of every thread every
 * 100 us of wall time.
 *
 * Not part of the CMake build. Build and run (from the repo root;
 * -g adds line tables without changing the Release code):
 *
 *   cmake -B build-g -S . -DCMAKE_BUILD_TYPE=Release \
 *       -DCMAKE_CXX_FLAGS=-g && cmake --build build-g -j --target c3d-sweep
 *   gcc -O2 -shared -fPIC -o /tmp/pc_sample.so scripts/pc_sample.c \
 *       -lrt -ldl
 *   LD_PRELOAD=/tmp/pc_sample.so ./build-g/c3d-sweep \
 *       --workloads=facesim --designs=c3d --sockets=4 --out=/dev/null
 *   python3 scripts/pc_profile.py pc_sample.<pid>.txt
 *
 * Each thread (the main thread at load time, every later thread as
 * pthread_create starts it) arms its own CLOCK_MONOTONIC timer that
 * signals that thread (SIGEV_THREAD_ID) with SIGPROF. The handler
 * appends the interrupted RIP to a preallocated buffer -- nothing
 * else, so it is async-signal-safe. At exit the library writes
 * pc_sample.<pid>.txt in the working directory: the executable
 * mappings of /proc/self/maps ("M <line>") and one "P <hex pc>" line
 * per sample. pc_profile.py resolves the samples with addr2line -i
 * and tabulates them by layer (x86-64 Linux only).
 */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define SAMPLE_PERIOD_NS 100000L
#define MAX_SAMPLES (1L << 23)

static uintptr_t samples[MAX_SAMPLES];
static long nsamples;
static int stopped;
static pthread_key_t timer_key;

static void
on_sigprof(int sig, siginfo_t *info, void *uctx)
{
    (void)sig;
    (void)info;
    if (__atomic_load_n(&stopped, __ATOMIC_RELAXED))
        return;
    const ucontext_t *uc = (const ucontext_t *)uctx;
    const long i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

/* Arm a timer that interrupts the calling thread. */
static void
arm_this_thread(void)
{
    struct sigevent sev;
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
    timer_t *timer = malloc(sizeof *timer);
    if (!timer || timer_create(CLOCK_MONOTONIC, &sev, timer) != 0) {
        free(timer);
        return;
    }
    struct itimerspec its;
    memset(&its, 0, sizeof its);
    its.it_interval.tv_nsec = SAMPLE_PERIOD_NS;
    its.it_value.tv_nsec = SAMPLE_PERIOD_NS;
    timer_settime(*timer, 0, &its, NULL);
    pthread_setspecific(timer_key, timer);
}

/* Thread exit (also through pthread_exit): drop its timer. */
static void
disarm(void *timer)
{
    timer_delete(*(timer_t *)timer);
    free(timer);
}

struct start_args
{
    void *(*fn)(void *);
    void *arg;
};

static void *
trampoline(void *p)
{
    struct start_args a = *(struct start_args *)p;
    free(p);
    arm_this_thread();
    return a.fn(a.arg);
}

int
pthread_create(pthread_t *thread, const pthread_attr_t *attr,
               void *(*fn)(void *), void *arg)
{
    static int (*real)(pthread_t *, const pthread_attr_t *,
                       void *(*)(void *), void *);
    if (!real)
        real = dlsym(RTLD_NEXT, "pthread_create");
    struct start_args *a = malloc(sizeof *a);
    if (!a)
        return real(thread, attr, fn, arg);
    a->fn = fn;
    a->arg = arg;
    const int rc = real(thread, attr, trampoline, a);
    if (rc != 0)
        free(a);
    return rc;
}

__attribute__((constructor)) static void
start(void)
{
    pthread_key_create(&timer_key, disarm);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    arm_this_thread();
}

__attribute__((destructor)) static void
finish(void)
{
    __atomic_store_n(&stopped, 1, __ATOMIC_RELAXED);
    void *timer = pthread_getspecific(timer_key);
    if (timer) {
        pthread_setspecific(timer_key, NULL);
        disarm(timer);
    }

    char path[64];
    snprintf(path, sizeof path, "pc_sample.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps)) {
        char perms[8] = "";
        if (sscanf(line, "%*s %7s", perms) == 1 && perms[2] == 'x')
            fprintf(out, "M %s", line);
    }
    if (maps)
        fclose(maps);
    long n = __atomic_load_n(&nsamples, __ATOMIC_RELAXED);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    for (long i = 0; i < n; ++i)
        fprintf(out, "P %lx\n", (unsigned long)samples[i]);
    fclose(out);
    fprintf(stderr, "pc_sample: %ld samples -> %s\n", n, path);
}
