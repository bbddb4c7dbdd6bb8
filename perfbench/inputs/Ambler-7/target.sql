CREATE TABLE Team (
    tid INTEGER,
    tname VARCHAR(255),
    coach VARCHAR(255)
);
CREATE TABLE Player (
    plid INTEGER,
    tid INTEGER,
    pname VARCHAR(255),
    position VARCHAR(255),
    jersey INTEGER
);
