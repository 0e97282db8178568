// SIGPROF sampler, preloaded into an unmodified binary:
//   gcc -O2 -shared -fPIC -o prof.so prof.c && LD_PRELOAD=./prof.so <program>
// Every millisecond of CPU time the handler records RIP, the word at RSP and
// up to 23 return addresses from the frame-pointer chain (build the program
// with `-C force-frame-pointers=yes`). A leaf routine that sets up no frame
// (memcpy, malloc's fast path) leaves its caller only in that word, which
// is 0 when RSP is off the main thread's stack. At exit /proc/self/maps and
// the samples go to $SIGPROF_OUT (default ./sigprof.out) for report.py.
// x86-64 Linux only.
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 25          // RIP, the word at RSP, 23 callers
#define MAX_SAMPLES (1 << 18) // 262 s at 1 kHz; later samples are dropped

static uint64_t samples[MAX_SAMPLES][DEPTH];
static volatile long taken;
// Frames are walked on the main thread only: its stack bounds are the ones
// known without a call that is unsafe inside a signal handler.
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    long n = __sync_fetch_and_add(&taken, 1);
    if (n >= MAX_SAMPLES) return;
    greg_t *regs = ((ucontext_t *)uc)->uc_mcontext.gregs;
    uint64_t *out = samples[n];
    out[0] = regs[REG_RIP];
    uintptr_t sp = regs[REG_RSP], fp = regs[REG_RBP];
    if (sp < stack_lo || sp + 8 > stack_hi) return;
    out[1] = *(uint64_t *)sp;
    // A frame is [saved rbp, return address]; the chain must climb the stack.
    for (int depth = 2; depth < DEPTH; depth++) {
        if (fp < sp || fp + 16 > stack_hi || (fp & 7)) break;
        uint64_t ret = ((uint64_t *)fp)[1];
        if (!ret) break;
        out[depth] = ret;
        sp = fp + 16;
        fp = ((uint64_t *)fp)[0];
    }
}

static void dump(void) {
    struct itimerval off = {0};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[1024];
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fputs("--samples--\n", out);
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++) {
        // RIP and the RSP word always (the word may be 0), then the chain.
        for (int d = 0; d < DEPTH && (d < 2 || samples[i][d]); d++)
            fprintf(out, d ? " %lx" : "%lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t attr;
    void *lo;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) == 0 &&
        pthread_attr_getstack(&attr, &lo, &size) == 0) {
        stack_lo = (uintptr_t)lo;
        stack_hi = stack_lo + size;
    }
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
    atexit(dump);
}
