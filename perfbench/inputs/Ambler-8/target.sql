CREATE TABLE Author (
    aid INTEGER,
    aname VARCHAR(255),
    aemail VARCHAR(255)
);
CREATE TABLE Blog (
    bid INTEGER,
    aid INTEGER,
    btitle VARCHAR(255),
    authorName VARCHAR(255)
);
CREATE TABLE Post (
    postid INTEGER,
    bid INTEGER,
    ptitle VARCHAR(255),
    content VARCHAR(255),
    blogTitle VARCHAR(255),
    postAuthor VARCHAR(255)
);
